"""Execution-backend comparison: batched vs. reference interpreter.

The ROADMAP's "fast as the hardware allows" goal hinges on the functional
simulator not being the bottleneck of benchmark and eval runs.  This
benchmark runs one randomized AP workload (the kind every functional eval is
made of: add/sub/copy/clear streams over 256 SIMD rows) on every registered
execution backend and checks the two contract points of the subsystem:

* the ``batched`` backend's per-instruction path is at least 3x faster
  than ``reference``, and
* outputs, final CAM state and every CAMStats counter are byte-identical,
  so energy/latency numbers (Table II, Fig. 4) never depend on the backend.
"""

import numpy as np

from repro.ap.backends import available_backends
from repro.ap.backends.harness import (
    benchmark_backends,
    compare_backends,
    random_inputs,
    random_program,
)
from repro.eval.reporting import format_table

ROWS = 256
COLUMNS = 32
INSTRUCTIONS = 120

#: Minimum reference/batched runtime ratio accepted by the gate.
REQUIRED_SPEEDUP = 3.0


def test_backend_equivalence_on_benchmark_workload(ap_seed):
    rng = np.random.default_rng(ap_seed)
    program = random_program(rng, num_instructions=INSTRUCTIONS, columns=COLUMNS)
    inputs = random_inputs(program, ROWS, rng)
    comparison = compare_backends(
        program, inputs, rows=ROWS, columns=COLUMNS
    )
    assert comparison.equivalent, comparison.describe()


def test_backend_speedup(benchmark, save_report, ap_backend, ap_seed):
    runs = benchmark_backends(
        available_backends(),
        rows=ROWS,
        columns=COLUMNS,
        num_instructions=INSTRUCTIONS,
        seed=ap_seed,
        repeats=3,
    )

    # The pytest-benchmark timing tracks the backend selected on the command
    # line (--ap-backend); the speedup gate below always compares both.
    rng = np.random.default_rng(ap_seed)
    program = random_program(rng, num_instructions=INSTRUCTIONS, columns=COLUMNS)
    inputs = random_inputs(program, ROWS, rng)

    def run_selected():
        from repro.ap.backends.harness import execute_program

        return execute_program(ap_backend, program, inputs, ROWS, COLUMNS)

    benchmark.pedantic(run_selected, rounds=3, iterations=1)

    reference = runs["reference"]
    rows = [
        [
            name,
            f"{run.duration_s * 1e3:.2f}",
            f"{INSTRUCTIONS / run.duration_s:.0f}",
            f"{reference.duration_s / run.duration_s:.2f}x",
            run.stats.total_phases,
        ]
        for name, run in runs.items()
    ]
    text = format_table(
        ["backend", "runtime (ms)", "instr/s", "speedup", "phases"],
        rows,
        title=(
            f"AP execution backends: {INSTRUCTIONS} random instructions, "
            f"{ROWS} rows (timed backend: {ap_backend})"
        ),
    )
    save_report(
        "backends",
        text,
        data={
            "batched_speedup": reference.duration_s / runs["batched"].duration_s,
            **{
                f"{name}_runtime_ms": run.duration_s * 1e3
                for name, run in runs.items()
            },
        },
    )

    # All backends must observe the same exact event counts.
    phase_counts = {run.stats.total_phases for run in runs.values()}
    assert len(phase_counts) == 1, f"event counts diverged: {phase_counts}"

    speedup = reference.duration_s / runs["batched"].duration_s
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched backend is only {speedup:.2f}x faster than reference "
        f"(required: {REQUIRED_SPEEDUP}x)"
    )
