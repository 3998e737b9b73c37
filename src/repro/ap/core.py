"""Functional associative processor.

:class:`AssociativeProcessor` executes :class:`~repro.ap.isa.APProgram`
streams on a :class:`~repro.cam.array.CAMArray`.  The results are bit-exact
two's-complement integers, which is what lets the library demonstrate that
the RTM-AP retains software accuracy: the hardware performs exact integer
arithmetic, so the compiled network computes the same numbers as the
quantized software reference.

Instruction semantics are provided by a pluggable execution backend
(:mod:`repro.ap.backends`).  The ``reference`` backend interprets the
masked-search / tagged-write passes of the Table-I LUTs exactly as the
hardware sequences them; the default ``batched`` backend computes the
same results word-parallel across rows and bit-parallel per LUT pass while
charging identical :class:`~repro.cam.stats.CAMStats` event counts, so
energy/latency numbers never depend on the backend choice.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.ap.backends import DEFAULT_BACKEND, BackendSpec, create_backend
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.cam.array import CAMArray
from repro.cam.stats import CAMStats
from repro.errors import CapacityError, SimulationError
from repro.rtm.timing import RTMTechnology


class AssociativeProcessor:
    """One AP: a CAM array plus the controller that sequences LUT passes.

    Instruction semantics live in a pluggable execution backend (see
    :mod:`repro.ap.backends`): the ``reference`` backend interprets every
    masked-search/tagged-write pass, while the default ``batched`` backend
    computes the same results word-parallel with identical event accounting.

    Args:
        rows: CAM rows (SIMD lanes, i.e. output spatial positions).
        columns: CAM columns (operand registers).
        technology: RTM figures of merit.
        carry_column: column reserved for the carry/borrow bit.
        backend: execution backend name (``"reference"``/``"batched"``)
            or an :class:`~repro.ap.backends.ExecutionBackend` subclass.
    """

    def __init__(
        self,
        rows: int = 256,
        columns: int = 256,
        technology: Optional[RTMTechnology] = None,
        carry_column: int = 0,
        backend: BackendSpec = DEFAULT_BACKEND,
    ) -> None:
        self.technology = technology or RTMTechnology()
        self.array = CAMArray(rows=rows, columns=columns, technology=self.technology)
        if not (0 <= carry_column < columns):
            raise CapacityError(
                f"carry column {carry_column} outside the {columns}-column array"
            )
        self.carry_column = carry_column
        self.backend = create_backend(backend, self.array, carry_column)
        #: Number of rows holding valid data (defaults to all rows).
        self.active_rows = rows

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of CAM rows."""
        return self.array.rows

    @property
    def columns(self) -> int:
        """Number of CAM columns."""
        return self.array.columns

    @property
    def stats(self) -> CAMStats:
        """Primitive event counters accumulated so far."""
        return self.array.stats

    def reset_stats(self) -> CAMStats:
        """Return and reset the event counters."""
        return self.array.reset_stats()

    # ------------------------------------------------------------------
    # Data placement
    # ------------------------------------------------------------------
    def load_operand(
        self, region: ColumnRegion, values: Sequence[int], row_offset: int = 0
    ) -> None:
        """Place a signed operand vector (one value per row) into a column region."""
        self.array.load_operand(
            column=region.column,
            values=values,
            bitwidth=region.width,
            domain_offset=region.domain_offset,
            row_offset=row_offset,
        )

    def read_operand(
        self,
        region: ColumnRegion,
        num_rows: Optional[int] = None,
        row_offset: int = 0,
        signed: bool = True,
    ) -> np.ndarray:
        """Read a signed operand vector back from a column region."""
        return self.array.read_operand(
            column=region.column,
            bitwidth=region.width,
            domain_offset=region.domain_offset,
            row_offset=row_offset,
            num_rows=num_rows,
            signed=signed,
        )

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run_program(
        self,
        program: APProgram,
        inputs: Mapping[str, Sequence[int]],
        num_rows: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Load inputs, execute a program and return its named outputs.

        Args:
            program: compiled AP program.
            inputs: mapping from input name to a vector of signed integers
                (one per active row).
            num_rows: number of active rows; defaults to the length of the
                first input vector.

        Returns:
            Mapping from output name to the (sign-corrected) result vector.
        """
        if num_rows is None:
            if not inputs:
                raise SimulationError("run_program needs at least one input vector")
            num_rows = len(next(iter(inputs.values())))
        if num_rows > self.rows:
            raise CapacityError(
                f"{num_rows} input rows exceed the {self.rows}-row CAM"
            )
        self.active_rows = num_rows

        missing = set(program.input_columns) - set(inputs)
        if missing:
            raise SimulationError(f"missing input vectors for {sorted(missing)}")
        for name, region in program.input_columns.items():
            values = inputs[name]
            if len(values) != num_rows:
                raise SimulationError(
                    f"input {name!r} has {len(values)} values, expected {num_rows}"
                )
            self.load_operand(region, values)

        for instruction in program:
            self.execute(instruction)

        outputs: Dict[str, np.ndarray] = {}
        for name, region in program.output_columns.items():
            values = self.read_operand(region, num_rows=num_rows)
            if program.output_negated.get(name, False):
                values = -values
            outputs[name] = values
        return outputs

    def execute(self, instruction: APInstruction) -> None:
        """Execute a single instruction on the current CAM contents."""
        self.backend.execute(instruction, self.active_rows)

    # ------------------------------------------------------------------
    # Convenience single-op helpers (used by tests and examples)
    # ------------------------------------------------------------------
    def add_vectors(
        self,
        a: Sequence[int],
        b: Sequence[int],
        width: int,
        inplace: bool = False,
    ) -> np.ndarray:
        """Compute ``a + b`` element-wise on the AP (for demos and tests)."""
        return self._binary_op("add", a, b, width, inplace)

    def sub_vectors(
        self,
        a: Sequence[int],
        b: Sequence[int],
        width: int,
        inplace: bool = False,
    ) -> np.ndarray:
        """Compute ``a - b`` element-wise on the AP (for demos and tests)."""
        return self._binary_op("sub", a, b, width, inplace)

    def _binary_op(
        self, kind: str, a: Sequence[int], b: Sequence[int], width: int, inplace: bool
    ) -> np.ndarray:
        if len(a) != len(b):
            raise SimulationError(
                f"operand vectors must have equal length, got {len(a)} and {len(b)}"
            )
        # Operand roles: Table I computes A+B (add) and B-A (sub).  To expose
        # the natural "a - b" signature we place ``a`` in the minuend column.
        region_first = ColumnRegion(column=1, width=width)
        region_second = ColumnRegion(column=2, width=width)
        if kind == "add":
            src_a, src_b = region_first, region_second
        else:
            src_a, src_b = region_second, region_first  # subtrahend = b, minuend = a
        if inplace:
            dest = src_b
            opcode = APOpcode.ADD_INPLACE if kind == "add" else APOpcode.SUB_INPLACE
        else:
            dest = ColumnRegion(column=3, width=width)
            opcode = (
                APOpcode.ADD_OUTOFPLACE if kind == "add" else APOpcode.SUB_OUTOFPLACE
            )
        program = APProgram(name=f"{kind}-demo", carry_column=self.carry_column)
        program.input_columns = {"first": region_first, "second": region_second}
        program.output_columns = {"result": dest}
        program.append(
            APInstruction(
                opcode=opcode,
                dest=dest,
                src_a=src_a,
                src_b=src_b,
                comment=f"{kind} demo",
            )
        )
        outputs = self.run_program(program, inputs={"first": a, "second": b})
        return outputs["result"]
