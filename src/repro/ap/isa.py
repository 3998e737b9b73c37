"""Instruction set of the RTM-AP.

The compiler lowers a ternary convolution into an :class:`APProgram`: a
sequence of :class:`APInstruction` objects operating on *column regions* of
one CAM array.  Every instruction is SIMD across the CAM rows - each row is
one output spatial position (``Hout x Wout`` after im2col), so a single
instruction performs the same signed addition/subtraction for every output
position in parallel.

Operand model
-------------
A :class:`ColumnRegion` names a CAM column together with the domain offset
and bit width of the operand stored on that column's nanowires.  Operands are
two's-complement, LSB at the lowest domain.  Sources narrower than the
instruction width are consumed sign-extended (the controller re-aligns the
source column to its MSB for high bit positions); destinations must be at
least as wide as the instruction width.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CompilationError


class APOpcode(enum.Enum):
    """Operations the AP controller can issue."""

    #: dst <- src_a + src_b, result overwrites one of the sources (8 cycles/bit).
    ADD_INPLACE = "add_inplace"
    #: dst <- src_a + src_b into a fresh, pre-zeroed column (10 cycles/bit).
    ADD_OUTOFPLACE = "add_outofplace"
    #: dst <- src_b - src_a, result overwrites the minuend src_b (8 cycles/bit).
    SUB_INPLACE = "sub_inplace"
    #: dst <- src_b - src_a into a fresh, pre-zeroed column (10 cycles/bit).
    SUB_OUTOFPLACE = "sub_outofplace"
    #: dst <- src_a (bit-serial copy via search-1/write-1, search-0/write-0).
    COPY = "copy"
    #: dst <- 0 (bulk clear of a column region in every row).
    CLEAR = "clear"

    @property
    def is_arithmetic(self) -> bool:
        """True for add/sub opcodes (the ones counted as #Adds/Subs)."""
        return self in (
            APOpcode.ADD_INPLACE,
            APOpcode.ADD_OUTOFPLACE,
            APOpcode.SUB_INPLACE,
            APOpcode.SUB_OUTOFPLACE,
        )

    @property
    def is_inplace(self) -> bool:
        """True when the result overwrites one of the source columns."""
        return self in (APOpcode.ADD_INPLACE, APOpcode.SUB_INPLACE)

    @property
    def lut_kind(self) -> Optional[str]:
        """The LUT family (``'add'``/``'sub'``) backing this opcode, if any."""
        if self in (APOpcode.ADD_INPLACE, APOpcode.ADD_OUTOFPLACE):
            return "add"
        if self in (APOpcode.SUB_INPLACE, APOpcode.SUB_OUTOFPLACE):
            return "sub"
        return None


#: The add/sub opcodes, for per-instruction counting (a set lookup is several
#: times cheaper than the :attr:`APOpcode.is_arithmetic` property call).
_ARITHMETIC_OPCODES = frozenset(opcode for opcode in APOpcode if opcode.is_arithmetic)


@dataclass(frozen=True)
class ColumnRegion:
    """A multi-bit operand stored on one CAM column.

    Attributes:
        column: CAM column index (the operand "register").
        width: number of bits (domains) occupied.
        domain_offset: first domain of the operand on the nanowire.
    """

    column: int
    width: int
    domain_offset: int = 0

    def __post_init__(self) -> None:
        if self.column < 0:
            raise CompilationError(f"column must be >= 0, got {self.column}")
        if self.width < 1:
            raise CompilationError(f"width must be >= 1, got {self.width}")
        if self.domain_offset < 0:
            raise CompilationError(
                f"domain_offset must be >= 0, got {self.domain_offset}"
            )

    @property
    def end_domain(self) -> int:
        """One past the last domain used by the operand."""
        return self.domain_offset + self.width

    def bit_position(self, bit: int) -> int:
        """Domain index holding logical bit ``bit`` (sign-extended beyond width)."""
        if bit < 0:
            raise CompilationError(f"bit index must be >= 0, got {bit}")
        return self.domain_offset + min(bit, self.width - 1)


@dataclass(frozen=True)
class APInstruction:
    """One SIMD operation across all rows of an AP.

    Attributes:
        opcode: the operation to perform.
        dest: destination column region (for in-place ops this equals one of
            the sources).
        src_a: first source (the subtrahend for subtractions).
        src_b: second source (the minuend for subtractions); ``None`` for
            COPY/CLEAR.
        extra_dests: additional columns that receive a copy of the result via
            the same write phases (multi-destination write, used to set up
            later in-place operations at no extra cycle cost - paper
            Sec. IV-C).
        negate: the *logical* value represented by ``dest`` is the negation of
            the stored value.  The flag is bookkeeping for the compiler (signs
            are folded into downstream adds/subs); the stored bits are not
            negated.
        comment: free-form annotation (layer / DFG node provenance).
    """

    opcode: APOpcode
    dest: ColumnRegion
    src_a: Optional[ColumnRegion] = None
    src_b: Optional[ColumnRegion] = None
    extra_dests: Tuple[ColumnRegion, ...] = ()
    negate: bool = False
    comment: str = ""

    def __post_init__(self) -> None:
        if self.opcode.is_arithmetic:
            if self.src_a is None or self.src_b is None:
                raise CompilationError(
                    f"{self.opcode.value} requires two sources ({self.comment!r})"
                )
            if self.opcode.is_inplace:
                expected_dest = self.src_b if self.opcode.lut_kind == "sub" else None
                if self.opcode.lut_kind == "add":
                    if self.dest not in (self.src_a, self.src_b):
                        raise CompilationError(
                            "in-place add must write one of its sources "
                            f"({self.comment!r})"
                        )
                elif self.dest != expected_dest:
                    raise CompilationError(
                        "in-place sub must overwrite the minuend src_b "
                        f"({self.comment!r})"
                    )
            # Note: the destination may be narrower than a source *region*:
            # source regions describe the allocated (possibly grown) storage,
            # while the execution width is the destination width - the
            # compiler's bit-width inference guarantees the true result value
            # fits.  Only the structural constraints are checked here.
            if self.opcode.is_inplace and self.extra_dests:
                raise CompilationError(
                    "multi-destination writes require an out-of-place operation "
                    f"({self.comment!r})"
                )
        elif self.opcode is APOpcode.COPY:
            if self.src_a is None:
                raise CompilationError(f"COPY requires src_a ({self.comment!r})")
        # CLEAR only needs dest.

    @property
    def width(self) -> int:
        """Execution width (bits iterated) - the destination region width."""
        return self.dest.width

    @property
    def all_dests(self) -> Tuple[ColumnRegion, ...]:
        """Primary destination plus any extra copy destinations."""
        return (self.dest,) + self.extra_dests

    def __str__(self) -> str:
        srcs = ", ".join(
            f"c{s.column}[{s.width}b]" for s in (self.src_a, self.src_b) if s is not None
        )
        dests = "/".join(f"c{d.column}" for d in self.all_dests)
        neg = " (neg)" if self.negate else ""
        note = f"  ; {self.comment}" if self.comment else ""
        return f"{self.opcode.value:<16} {dests}[{self.width}b] <- {srcs}{neg}{note}"


@dataclass
class APProgram:
    """A sequence of AP instructions together with named column bindings.

    Attributes:
        instructions: the instruction stream, executed in order.
        input_columns: mapping from input operand name (e.g. ``"x3"`` - the
            im2col patch element index) to the column region holding it.
        output_columns: mapping from output name (e.g. ``"y7"`` - the output
            channel index) to the column region holding the result.
        output_negated: outputs whose stored value is the negation of the
            logical value (resolved by the accumulation phase).
        carry_column: column reserved for the carry/borrow bit.
        name: identifier used in reports.
    """

    instructions: List[APInstruction] = field(default_factory=list)
    input_columns: Dict[str, ColumnRegion] = field(default_factory=dict)
    output_columns: Dict[str, ColumnRegion] = field(default_factory=dict)
    output_negated: Dict[str, bool] = field(default_factory=dict)
    carry_column: int = 0
    name: str = "ap-program"

    def append(self, instruction: APInstruction) -> None:
        """Append one instruction to the stream."""
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[APInstruction]) -> None:
        """Append several instructions to the stream."""
        self.instructions.extend(instructions)

    def __iter__(self) -> Iterator[APInstruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    # ------------------------------------------------------------------
    # Statistics used by reports and the performance model
    # ------------------------------------------------------------------
    @property
    def num_arithmetic_ops(self) -> int:
        """Number of add/sub instructions (the paper's #Adds/Subs metric)."""
        return sum(
            1 for instr in self.instructions if instr.opcode in _ARITHMETIC_OPCODES
        )

    @property
    def num_inplace_ops(self) -> int:
        """Number of in-place add/sub instructions."""
        return sum(
            1
            for instr in self.instructions
            if instr.opcode.is_arithmetic and instr.opcode.is_inplace
        )

    @property
    def num_outofplace_ops(self) -> int:
        """Number of out-of-place add/sub instructions."""
        return self.num_arithmetic_ops - self.num_inplace_ops

    @property
    def max_column_used(self) -> int:
        """Highest column index referenced by the program."""
        highest = self.carry_column
        for instr in self.instructions:
            for region in instr.all_dests:
                highest = max(highest, region.column)
            for region in (instr.src_a, instr.src_b):
                if region is not None:
                    highest = max(highest, region.column)
        return highest

    @property
    def max_domain_used(self) -> int:
        """Highest domain index (exclusive) referenced by the program."""
        highest = 0
        for instr in self.instructions:
            for region in instr.all_dests:
                highest = max(highest, region.end_domain)
            for region in (instr.src_a, instr.src_b):
                if region is not None:
                    highest = max(highest, region.end_domain)
        return highest

    def opcode_histogram(self) -> Dict[str, int]:
        """Instruction count per opcode name."""
        histogram: Dict[str, int] = {}
        for instr in self.instructions:
            histogram[instr.opcode.value] = histogram.get(instr.opcode.value, 0) + 1
        return histogram

    def listing(self) -> str:
        """Human-readable assembly-style listing of the program."""
        lines = [f"; program {self.name}: {len(self.instructions)} instructions"]
        lines.extend(str(instr) for instr in self.instructions)
        return "\n".join(lines)
