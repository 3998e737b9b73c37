"""Cross-backend equivalence and benchmarking harness.

Shared by the unit tests (``tests/ap/test_backends.py``), the CLI
(``python -m repro apbench``) and the benchmark suite
(``benchmarks/bench_backends.py``): generates randomized AP programs, runs
them on any registered execution backend and compares outputs, final CAM
state and every :class:`~repro.cam.stats.CAMStats` counter field by field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.cam.stats import CAMStats
from repro.errors import SimulationError
from repro.rtm.timing import RTMTechnology
from repro.utils.bitops import max_signed_value, min_signed_value


# ----------------------------------------------------------------------
# Randomized program generation
# ----------------------------------------------------------------------
def random_program(
    rng: np.random.Generator,
    num_instructions: int = 24,
    columns: int = 24,
    max_width: int = 10,
    num_inputs: int = 4,
    extra_dest_probability: float = 0.2,
    name: str = "fuzz",
) -> APProgram:
    """Generate a random but well-formed AP program.

    One operand region is placed per column (column 0 stays reserved for the
    carry bit), then ``num_instructions`` add/sub/copy/clear instructions are
    drawn over those regions, respecting the structural rules of the ISA
    (in-place ops overwrite operand B, out-of-place destinations are disjoint
    from their sources).  The first ``num_inputs`` regions are program inputs
    and a handful of written regions become outputs.
    """
    if columns < 5:
        raise SimulationError(f"need at least 5 columns to fuzz, got {columns}")
    regions = [
        ColumnRegion(
            column=column,
            width=int(rng.integers(2, max_width + 1)),
            domain_offset=int(rng.integers(0, 4)),
        )
        for column in range(1, columns)
    ]
    program = APProgram(name=name, carry_column=0)
    program.input_columns = {
        f"x{index}": regions[index] for index in range(min(num_inputs, len(regions)))
    }

    written: List[ColumnRegion] = []
    for step in range(num_instructions):
        kind = rng.choice(["add", "sub", "copy", "clear"], p=[0.35, 0.35, 0.2, 0.1])
        if kind in ("add", "sub"):
            src_a, src_b = rng.choice(len(regions), size=2, replace=False)
            src_a, src_b = regions[src_a], regions[src_b]
            inplace = bool(rng.random() < 0.5)
            if inplace:
                if kind == "add" and rng.random() < 0.5:
                    # Exercise the commutative swap: overwrite operand A.
                    dest = src_a
                else:
                    dest = src_b
                opcode = (
                    APOpcode.ADD_INPLACE if kind == "add" else APOpcode.SUB_INPLACE
                )
                extra_dests: Tuple[ColumnRegion, ...] = ()
            else:
                choices = [
                    r
                    for r in regions
                    if r.column not in (src_a.column, src_b.column)
                ]
                dest = choices[int(rng.integers(len(choices)))]
                extra_dests = ()
                if rng.random() < extra_dest_probability:
                    extra_choices = [
                        r
                        for r in choices
                        if r.column != dest.column
                    ]
                    if extra_choices:
                        extra_dests = (
                            extra_choices[int(rng.integers(len(extra_choices)))],
                        )
                opcode = (
                    APOpcode.ADD_OUTOFPLACE
                    if kind == "add"
                    else APOpcode.SUB_OUTOFPLACE
                )
            instruction = APInstruction(
                opcode=opcode,
                dest=dest,
                src_a=src_a,
                src_b=src_b,
                extra_dests=extra_dests,
                comment=f"fuzz step {step}",
            )
            written.append(dest)
        elif kind == "copy":
            src_index, dest_index = rng.choice(len(regions), size=2, replace=False)
            instruction = APInstruction(
                opcode=APOpcode.COPY,
                dest=regions[dest_index],
                src_a=regions[src_index],
                comment=f"fuzz step {step}",
            )
            written.append(regions[dest_index])
        else:
            target = regions[int(rng.integers(len(regions)))]
            instruction = APInstruction(
                opcode=APOpcode.CLEAR, dest=target, comment=f"fuzz step {step}"
            )
            written.append(target)
        program.append(instruction)

    outputs = written[-4:] if written else regions[:1]
    program.output_columns = {
        f"y{index}": region for index, region in enumerate(outputs)
    }
    program.output_negated = {
        name: bool(rng.random() < 0.25) for name in program.output_columns
    }
    return program


def random_inputs(
    program: APProgram, rows: int, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """Random input vectors fitting each input region's signed range."""
    return {
        name: rng.integers(
            min_signed_value(region.width),
            max_signed_value(region.width) + 1,
            size=rows,
        )
        for name, region in program.input_columns.items()
    }


# ----------------------------------------------------------------------
# Execution and comparison
# ----------------------------------------------------------------------
@dataclass
class BackendRun:
    """Result of running one program on one backend."""

    backend: str
    outputs: Dict[str, np.ndarray]
    stats: CAMStats
    duration_s: float
    cell_bits: np.ndarray
    port_positions: np.ndarray


def execute_program(
    backend: str,
    program: APProgram,
    inputs: Dict[str, np.ndarray],
    rows: int,
    columns: int,
    technology: Optional[RTMTechnology] = None,
) -> BackendRun:
    """Run ``program`` on a fresh AP using ``backend`` and snapshot the result."""
    from repro.ap.core import AssociativeProcessor

    ap = AssociativeProcessor(
        rows=rows,
        columns=columns,
        technology=technology,
        carry_column=program.carry_column,
        backend=backend,
    )
    start = time.perf_counter()
    outputs = ap.run_program(program, inputs)
    duration = time.perf_counter() - start
    return BackendRun(
        backend=ap.backend.name,
        outputs=outputs,
        stats=ap.stats,
        duration_s=duration,
        cell_bits=ap.array._bits.copy(),
        port_positions=ap.array._port_positions.copy(),
    )


@dataclass
class BackendComparison:
    """Field-by-field comparison of two backend runs of the same program."""

    baseline: BackendRun
    candidate: BackendRun
    output_mismatches: List[str] = field(default_factory=list)
    stats_mismatches: List[str] = field(default_factory=list)
    state_matches: bool = True

    @property
    def equivalent(self) -> bool:
        """True when outputs, counters and final CAM state all agree."""
        return (
            not self.output_mismatches
            and not self.stats_mismatches
            and self.state_matches
        )

    @property
    def speedup(self) -> float:
        """Baseline runtime divided by candidate runtime."""
        return self.baseline.duration_s / max(self.candidate.duration_s, 1e-12)

    def describe(self) -> str:
        """Human-readable verdict for reports and assertion messages."""
        if self.equivalent:
            return (
                f"{self.candidate.backend} == {self.baseline.backend} "
                f"(speedup {self.speedup:.1f}x)"
            )
        problems = self.output_mismatches + self.stats_mismatches
        if not self.state_matches:
            problems.append("final CAM state differs")
        return f"{self.candidate.backend} != {self.baseline.backend}: " + "; ".join(
            problems
        )


def compare_runs(
    baseline_run: BackendRun, candidate_run: BackendRun
) -> BackendComparison:
    """Compare two completed runs of the same program, field by field."""
    comparison = BackendComparison(baseline=baseline_run, candidate=candidate_run)
    for name, expected in baseline_run.outputs.items():
        got = candidate_run.outputs.get(name)
        if got is None or not np.array_equal(expected, got):
            comparison.output_mismatches.append(
                f"output {name!r}: expected {expected!r}, got {got!r}"
            )
    for field_name in vars(baseline_run.stats):
        expected_value = getattr(baseline_run.stats, field_name)
        got_value = getattr(candidate_run.stats, field_name)
        if expected_value != got_value:
            comparison.stats_mismatches.append(
                f"stats.{field_name}: expected {expected_value}, got {got_value}"
            )
    comparison.state_matches = np.array_equal(
        baseline_run.cell_bits, candidate_run.cell_bits
    ) and np.array_equal(
        baseline_run.port_positions, candidate_run.port_positions
    )
    return comparison


def compare_backends(
    program: APProgram,
    inputs: Dict[str, np.ndarray],
    rows: int,
    columns: int,
    baseline: str = "reference",
    candidate: str = "batched",
    technology: Optional[RTMTechnology] = None,
) -> BackendComparison:
    """Run a program on two backends and compare every observable."""
    return compare_runs(
        execute_program(baseline, program, inputs, rows, columns, technology),
        execute_program(candidate, program, inputs, rows, columns, technology),
    )


def benchmark_backends(
    backends: Sequence[str],
    rows: int = 256,
    columns: int = 24,
    num_instructions: int = 60,
    seed: int = 0,
    repeats: int = 1,
) -> Dict[str, BackendRun]:
    """Time one randomized workload on several backends (same program/data).

    Returns the fastest run per backend; all runs of one invocation share the
    program and inputs, so durations and stats are directly comparable.
    """
    rng = np.random.default_rng(seed)
    program = random_program(rng, num_instructions=num_instructions, columns=columns)
    inputs = random_inputs(program, rows, rng)
    results: Dict[str, BackendRun] = {}
    for backend in backends:
        best: Optional[BackendRun] = None
        for _ in range(max(1, repeats)):
            run = execute_program(backend, program, inputs, rows, columns)
            if best is None or run.duration_s < best.duration_s:
                best = run
        results[backend] = best
    return results
