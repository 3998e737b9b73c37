"""Functional AP demo: run the paper's Eq. 1 on a simulated CAM array.

Compiles the 6x6 ternary matrix-vector product of the paper's Eq. 1 into AP
instructions, executes them bit-serially on the functional associative
processor (masked searches + tagged writes from Table I), and checks the
result against NumPy.  Also prints the generated "assembly" and the exact
event counts (search/write phases, shifts) the execution needed.

Run with::

    python examples/ap_microbenchmark.py [--backend reference|batched]

Both execution backends produce the same bit-exact result and the same event
counts; ``--backend batched`` just gets there faster.
"""

import argparse

import numpy as np

from repro import AssociativeProcessor, CompilerConfig, available_backends, compile_slice
from repro.eval.reporting import format_table

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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="reference",
        help="AP execution backend (same results, different speed)",
    )
    arguments = parser.parse_args()

    config = CompilerConfig(enable_cse=True, activation_bits=4)
    compiled = compile_slice(PAPER_EQ1, config, name="eq1")

    print("Compiled AP program for the paper's Eq. 1 "
          f"({compiled.statistics.dfg_ops} add/sub operations after CSE):\n")
    print(compiled.program.listing())

    # 16 output positions (CAM rows), random 4-bit activations per position.
    rng = np.random.default_rng(7)
    rows = 16
    activations = rng.integers(0, 16, size=(6, rows))

    ap = AssociativeProcessor(rows=rows, columns=32, backend=arguments.backend)
    inputs = {name: activations[int(name[1:])] for name in compiled.program.input_columns}
    outputs = ap.run_program(compiled.program, inputs)

    ap_result = np.stack([outputs[f"y{o}"] for o in range(6)])
    reference = PAPER_EQ1 @ activations
    assert np.array_equal(ap_result, reference), "AP result diverged from NumPy!"

    print("\nBit-exact match with NumPy:", np.array_equal(ap_result, reference))
    stats = ap.stats
    print(
        format_table(
            ["event", "count"],
            [
                ["search phases", stats.search_phases],
                ["write phases", stats.write_phases],
                ["compared bits", stats.searched_bits],
                ["written bits", stats.written_bits],
                ["lockstep shifts", stats.lockstep_shift_steps],
                ["energy (pJ)", f"{stats.energy_fj(ap.technology) / 1e3:.2f}"],
                ["latency (ns)", f"{stats.latency_ns(ap.technology):.1f}"],
            ],
            title=(
                f"Exact AP event counts for {rows} output positions "
                f"({arguments.backend} backend)"
            ),
        )
    )


if __name__ == "__main__":
    main()
