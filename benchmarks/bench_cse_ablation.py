"""Experiments E2 and E5 - the CSE optimization.

* E2: the paper's Eq. 1 example (6x6 ternary MVM, ~20 ops -> 7 ops).
* E5: network-wide #Adds/Subs of ``unroll`` vs ``unroll+CSE`` (Table II's last
  two columns; paper ResNet-18: 1499K -> 931K, i.e. ~31 % average reduction).
"""

import numpy as np
import pytest

from repro.core.compiler import CompilerConfig, compile_model
from repro.core.cse import eliminate_common_subexpressions
from repro.core.folding import fold_weight_slice, unrolled_op_count
from repro.core.report import compare_configurations
from repro.eval.reporting import format_table

BENCH_SLICE_SAMPLING = 12

PAPER_EQ1 = np.array(
    [
        [1, -1, 0, 1, 0, -1],
        [0, 0, -1, 1, 0, -1],
        [0, 0, 0, -1, 0, 1],
        [0, -1, 0, -1, 0, 1],
        [1, -1, 0, -1, 0, 0],
        [1, -1, -1, 1, 0, -1],
    ],
    dtype=np.int8,
)


def test_equation1_example(benchmark, save_report):
    """Eq. 1: greedy CSE reduces the example MVM to 7 operations."""
    result = benchmark(lambda: eliminate_common_subexpressions(fold_weight_slice(PAPER_EQ1)))
    text = format_table(
        ["metric", "value"],
        [
            ["non-zero weights (paper: 19-20 ops)", unrolled_op_count(PAPER_EQ1)],
            ["operations after CSE (paper: 7)", result.total_operations],
            ["extracted temporaries", result.num_definitions],
        ],
        title="Eq. 1 - CSE on the paper's 6x6 ternary MVM",
    )
    save_report(
        "eq1_cse",
        text,
        data={
            "unrolled_ops": unrolled_op_count(PAPER_EQ1),
            "cse_ops": result.total_operations,
        },
    )
    assert result.total_operations == 7


@pytest.mark.parametrize(
    "network,sparsity",
    [("resnet18", 0.8), ("vgg9", 0.85), ("vgg9", 0.9), ("vgg11", 0.85), ("vgg11", 0.9)],
)
def test_network_op_reduction(benchmark, save_report, network, sparsity):
    """Network-wide unroll vs unroll+CSE op counts (Table II, #Adds columns)."""
    from repro.core.frontend import specs_for_network

    specs = specs_for_network(network, sparsity=sparsity, rng=0)

    def run():
        unroll = compile_model(
            specs,
            CompilerConfig(enable_cse=False, max_slices_per_layer=BENCH_SLICE_SAMPLING),
            name=network,
        )
        cse = compile_model(
            specs,
            CompilerConfig(enable_cse=True, max_slices_per_layer=BENCH_SLICE_SAMPLING),
            name=network,
        )
        return unroll, cse

    unroll, cse = benchmark.pedantic(run, rounds=1, iterations=1)
    report = compare_configurations(unroll, cse)
    text = report.to_text() + (
        f"\n\nmean per-layer reduction: {report.mean_layer_reduction * 100:.1f}% "
        f"(paper: ~31% average; ResNet-18 total 1499K -> 931K)"
    )
    save_report(
        f"cse_ablation_{network}_{sparsity}",
        text,
        data={
            "unroll_ops": unroll.total_ops,
            "cse_ops": cse.total_ops,
            "total_reduction": report.total_reduction,
            "mean_layer_reduction": report.mean_layer_reduction,
        },
    )
    assert cse.total_ops < unroll.total_ops
    assert 0.03 < report.total_reduction < 0.5


def test_cse_scaling_with_kernel_size(benchmark, save_report):
    """Larger kernels expose more redundancy (paper: the 7x7 stem benefits most)."""
    from repro.nn.ternary import synthetic_ternary_weights

    rows = []
    for kernel in (1, 3, 5, 7):
        weight_slice = synthetic_ternary_weights((64, kernel * kernel), 0.8, rng=kernel)
        result = eliminate_common_subexpressions(weight_slice)
        original = unrolled_op_count(weight_slice)
        optimized = result.fused_total_operations
        reduction = 1.0 - optimized / max(1, original)
        rows.append([f"{kernel}x{kernel}", original, optimized, f"{reduction * 100:.1f}%"])
    text = format_table(
        ["kernel", "unroll ops", "unroll+CSE ops", "reduction"],
        rows,
        title="CSE benefit vs kernel size (64 output channels, 0.8 sparsity)",
    )
    save_report(
        "cse_vs_kernel_size",
        text,
        data={f"ops_after_cse_{row[0]}": row[2] for row in rows},
    )

    benchmark(
        lambda: eliminate_common_subexpressions(
            synthetic_ternary_weights((64, 49), 0.8, rng=7)
        )
    )
