"""Execution-backend interface of the associative processor.

An :class:`ExecutionBackend` implements the instruction semantics of the AP on
a shared :class:`~repro.cam.array.CAMArray`.  Backends are interchangeable:
for every instruction they must leave the array's visible state (stored bits,
port positions) *and* the accumulated :class:`~repro.cam.stats.CAMStats`
event counters in exactly the state the bit-serial hardware would - only how
those results are computed may differ.  This is what keeps the energy/latency
accounting (Table II, Fig. 4) independent of simulation speed.

Three backends ship with the library:

* ``reference`` (:class:`~repro.ap.backends.reference.ReferenceBackend`) -
  the bit-exact masked-search / tagged-write interpreter.  Every LUT pass is
  simulated as the hardware performs it; events are counted as they happen.
* ``vectorized`` (:class:`~repro.ap.backends.vectorized.VectorizedBackend`) -
  a NumPy backend that computes each instruction word-parallel across rows
  and bit-parallel across positions, then charges the exact same events
  analytically from precomputed per-LUT truth tensors.
* ``batched`` (:class:`~repro.ap.backends.batched.BatchedBackend`) - the
  vectorized semantics plus a layer-level *wave* entry point
  (:func:`~repro.ap.backends.batched.execute_program_wave`): all (image, row
  tile) instances of one layer are stacked as packed nanowire words and the
  shared instruction stream is evaluated once across the whole wave, with
  per-instance counters replayed from per-instruction fire words.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Tuple

from repro.ap.isa import APInstruction, ColumnRegion
from repro.cam.array import CAMArray
from repro.errors import CompilationError


class ExecutionBackend(abc.ABC):
    """Executes AP instructions on a CAM array.

    Args:
        array: the CAM array holding the operand state and event counters.
        carry_column: column reserved for the carry/borrow bit.
    """

    #: Registry name of the backend (e.g. ``"reference"``).
    name: ClassVar[str] = "abstract"

    def __init__(self, array: CAMArray, carry_column: int) -> None:
        self.array = array
        self.carry_column = carry_column

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def execute(self, instruction: APInstruction, active_rows: int) -> None:
        """Execute one instruction on the first ``active_rows`` rows."""

    # ------------------------------------------------------------------
    # Shared structural validation (identical across backends)
    # ------------------------------------------------------------------
    def _prepare_arithmetic(
        self, instruction: APInstruction
    ) -> Tuple[ColumnRegion, ColumnRegion]:
        """Validate an add/sub instruction and normalise its operand roles.

        Returns the effective ``(src_a, src_b)`` pair: for an in-place add
        that overwrites ``src_a`` the sources are swapped (addition is
        commutative and the in-place LUT always overwrites operand B).
        """
        src_a = instruction.src_a
        src_b = instruction.src_b
        dest = instruction.dest
        opcode = instruction.opcode
        assert src_a is not None and src_b is not None

        if src_a.column == src_b.column:
            raise CompilationError(
                f"AP arithmetic needs distinct source columns, got column "
                f"{src_a.column} twice ({instruction.comment!r})"
            )
        if opcode.lut_kind == "add" and opcode.is_inplace and dest == src_a:
            src_a, src_b = src_b, src_a
        if opcode.is_inplace and dest != src_b:
            raise CompilationError(
                f"in-place {opcode.lut_kind} must overwrite its B operand "
                f"({instruction.comment!r})"
            )
        if not opcode.is_inplace:
            overlapping = {dest.column} & {src_a.column, src_b.column}
            if overlapping:
                raise CompilationError(
                    f"out-of-place destination column {overlapping} overlaps a "
                    f"source ({instruction.comment!r})"
                )
        elif instruction.extra_dests:
            raise CompilationError(
                "multi-destination writes are only supported for out-of-place "
                f"operations ({instruction.comment!r})"
            )
        return src_a, src_b
