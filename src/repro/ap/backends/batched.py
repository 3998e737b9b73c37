"""The NumPy execution backend: word-parallel instructions, and a whole
layer's (images x tiles) wave as program-lockstep blocks on packed nanowire
words.

Per instruction, :class:`BatchedBackend` computes every operand
word-parallel across rows and bit-parallel across positions, then charges
the exact events the reference interpreter would count (see *Per-instruction
execution* below).  That removes the per-*bit* interpretation cost but still
executes one ``(image, tile)`` AP at a time, so a layer of ``N`` images
times ``T`` row tiles pays ``N x T`` Python instruction loops.  Those
instances are perfectly homogeneous: every row tile of one channel group
shares the *same* compiled slice programs, only the activation rows differ.
This module stacks the instances and evaluates the shared instruction
stream once for the whole wave - the mega-kernel.

The wave state mirrors the hardware's word-parallel, bit-serial layout: each
column of each row is one RTM nanowire of up to 64 domains, held as one
unsigned word (bit ``d`` is domain ``d``).  A technology with more than 64
domains per nanowire declines the wave.  The word is fitted to the tile:
its schedule records the deepest domain any load, source, destination or
output reaches and picks the narrowest of ``uint8/16/32/64`` that keeps a
spare bit above it, so a sign-extended read - negated or not - and every
``b +/- a`` stays exact in the word's signed view (``uint64`` needs no spare
bit: no region is wider than 60 bits).  Every width runs the same code; a
tile whose regions all end below domain 8 runs on ``uint8`` words and
moves an eighth of the bytes of ``uint64`` ones.  Popcounts take the
unsigned view (on a signed word ``np.bitwise_count`` counts ``|x|``), and
fire words are stored zero-extended.

Program lockstep.  A tile's slice programs are independent adder trees, one
per output-channel slice, that the AP runs back to back.  Lowering tracks,
per column, which domains a program has defined so far (its loads, clears
and written destinations; the upper bits of a narrow extra destination stay
undefined unless they already were).  A *self-contained* program reads only
domains it defined itself, so nothing its predecessors left on the AP can
reach its results: it runs in its own zeroed slice of a ``(block x columns,
instances, rows)`` word tensor, side by side with the other programs of its
block.  A program that does read stale state starts a new block whose first
slice is seeded with the true AP state before it, which the kernel composes
from the earlier slices while a later block needs it.  The block width
follows from the tile's static shape (:data:`_BLOCK_WORDS` words of block
state per instance), so each tile's schedule is built once, at deploy, by
:func:`wave_staging_plan`.

Level groups.  Lowering also gives every record a dataflow level: one past
the last write of any column it reads or writes (RAW and WAW edges) and one
past the last read of the column it writes (WAR edge).  Records of one level
write distinct words and read none that another of them writes, so they
may run at once - in an adder tree, every addition at one depth.  The
schedule sorts each block's records by (level, kind, program order) and
runs each run of equal (level, kind) as one group: at each depth, every
program's independent additions together, then its copies, then its
clears.  Because the kinds of one level run one after another, the WAR edge
is strict.  The four add/sub LUTs share arithmetic groups through
per-record pass flips and signs, padded to five passes.  The kernel
executes each group with one set of NumPy calls on gathered ``(records,
instances, rows)`` words, then scatters the results back.  Counters do not
depend on the order: the replay reads each record's fire words by its slot
in program order.  Instances run in equal chunks under one byte budget
(:data:`_WAVE_CHUNK_BYTES`) covering the block state, the chunk's masked
operand loads, the minterm temporaries of the block's largest group and
the chunk's output rows, priced at the schedule's word size.

Batch results.  A wave returns one :class:`WaveBatch`: every instance's
outputs in one ``(outputs, instances, rows)`` array in the schedule's
signed word dtype, which each chunk's readout fills with one gather per
block, and the data-dependent counters as int64 arrays over instances.  The
host folds and accounts the batch as a whole; nothing is built per
instance unless a caller indexes the batch.

Equivalence contract (same as every backend, see :mod:`repro.ap.backends.base`):

* **Results.**  A region read is a power-of-two multiply, which moves the
  region's MSB to the word's top bit, and an arithmetic shift back: the
  sign extension replays the region's MSB exactly like
  ``ColumnRegion.bit_position`` does for the controller.  (Modular
  multiplication by ``2**k`` is a left shift by ``k``; NumPy runs it in
  vector loops on every word, but shifts ``uint8`` words left element by
  element.  Loads, destination writes and the readout scale the same way.)
  Arithmetic is
  ``b + a`` / ``b - a`` on the sign-extended words, the carry (borrow) into
  every bit position falls out of ``carries = a ^ b ^ result``, and writes
  are masked merges into the destination words.  The carry column is never
  read inside a wave (lowering declines programs that would read it), so it
  is not stored.
* **CAMStats.**  In each of the four Table-I LUTs every pass matches exactly
  one initial ``(carry, b, a)`` state and each state fires at most one pass
  (checked when a program is lowered; a LUT without that property declines).
  So one minterm word per pass, ``(carry ^ kc) & (b ^ kb) & (a ^ ka)``, marks
  the bits whose rows that pass writes.  Per instruction the kernel records
  only the OR over rows of each pass word (the *fire words*) and the number
  of matched bits (``np.bitwise_count`` of the OR of the pass words, which
  are disjoint), in the instruction's slot of the program sequence.  NumPy
  reduces a short row axis element by element, so where a row vector spans
  8 or 16 bytes (16 ``uint8`` rows, 4 or 8 ``uint16`` ones) and a group
  holds enough of them, both reductions - and a copy's OR and AND - run on
  the rows' ``uint64`` lanes: the lanes' OR folded by halving shifts, and
  the sum of the lanes' popcounts (:func:`_reduce_rows`,
  :func:`_count_rows`).  After
  each chunk, one replay derives ``write_phases`` and ``written_bits`` from
  those records, and replays the alignment events
  of the whole program sequence for ``lockstep_shift_steps``
  (``track_shifts`` is always ``lockstep x rows``).  Source, carry, copy and
  clear runs are data-independent and precomputed per program; an
  out-of-place destination run spans the first to the last set bit of its
  instruction's fire words, and is skipped where nothing fired.  Every
  instance's counters come out byte-identical to a standalone run on the
  reference interpreter.
* **Checksums.**  An instance's checksum is the Python-int sum of its
  outputs' int64 row sums, as a standalone run computes it;
  :meth:`WaveBatch.checksum` sums them over the wave, and takes the int64
  total of all outputs directly when that total cannot wrap.

Operand input.  The kernel takes one form: per lockstep block, one
``(loads, instances, rows)`` array in the schedule's word dtype, loads in
program order, each value a load's two's complement.  :class:`WaveGather`,
the inference engine's form, lays it out with one ``take`` per block from a
layer's codes through indices built at deploy (:func:`wave_gather_index`);
its caller proves the codes fit every load.  The public forms - one
``{name: row vector}`` dict per (instance, program), or
:class:`StagedWaveInputs` with one ``(instances, rows)`` integer batch per
operand - are adapters: per block and wave they stack the operands once,
range-check them in one vectorized test and cast them to the word.  Every
form produces byte-identical results and counters.

The wave entry point :func:`execute_program_wave` is conservative: any
program shape the per-instruction path would route to its interpreter fallback
(operands on the carry column, aliasing destinations, >60-bit words), any
geometry the word layout cannot hold, or any malformed input batch returns
``None`` so the caller can fall back to per-instance dispatch - where the
ordinary backends raise the proper errors.  Every such decline goes through
:func:`_decline` (a debug log line plus a ``backend.wave_decline`` trace
instant).  :func:`wave_staging_plan` lets the host pre-flight (and
pre-lower and pre-schedule) a tile's programs at deploy time, so serving
requests never pay the lowering cost: a request finds the tile's lowered
programs, schedule and replay plan with one lookup.

Per-instruction execution.  Outside waves (the CLI, the tests, declined
waves), :class:`BatchedBackend` runs each instruction as a few
whole-operand NumPy operations on sign-extended integers: the carry/borrow
chain of every row is ``carries = A ^ B ^ (A op B)``.  It charges the
interpreter's events exactly: search phases are data-independent; each
row's per-bit ``(carry, B, A)`` state is binned into an 8-bin histogram
whose product with the LUT's *truth tensor* (:func:`lut_truth_matrix`)
gives every (bit, pass) match count; and one
:meth:`~repro.cam.array.CAMArray.align_run` per column replays the shifts,
because every column's alignment target advances monotonically with the
bit position.  Layouts the compiler never emits (operands on the carry
column, destinations aliasing sources, >60-bit words) run on an embedded
:class:`~repro.ap.backends.reference.ReferenceBackend`.  After an error
raised mid-instruction the partial counts may differ from the
interpreter's.  The class advertises ``supports_program_wave``, which tells
the inference engine (:mod:`repro.inference.engine`) to hand it whole
layers of staged operands.
"""

from __future__ import annotations

import functools
from array import array
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.ap.backends.base import ExecutionBackend
from repro.ap.backends.packing import bit_shifts as _bit_shifts
from repro.ap.backends.reference import ReferenceBackend
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.ap.lut import get_lut, reference_bit_op
from repro.cam.array import CAMArray
from repro.cam.stats import COUNTER_FIELDS, CAMStats
from repro.errors import SimulationError
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY, RTMTechnology
from repro.telemetry.logs import get_logger
from repro.utils.bitops import max_signed_value, min_signed_value, pack_bits_int64

logger = get_logger(__name__)

#: Bits of the widest nanowire word; technologies with more domains decline.
_WORD_BITS = 64

#: Candidate word dtypes, narrowest first (see :func:`_word_dtype`).
_WORD_DTYPES = tuple(map(np.dtype, (np.uint8, np.uint16, np.uint32, np.uint64)))

#: Words of lockstep block state per instance: a ``rows x columns`` tile runs
#: ``_BLOCK_WORDS // (rows * columns)`` programs side by side (at least one).
_BLOCK_WORDS = 16384

#: Byte budget of one wave chunk - block state, masked operand loads,
#: minterm temporaries and output rows.  Instances beyond it run in
#: equivalence-preserving chunks (instances are independent).  Swept on
#: 96-image VGG-9 (width 1/16) requests (``perfbench/run.py``, seed 71, 6
#: alternating rounds of 26 s runs, 2-vCPU host with 4 MiB of L2), with
#: lane reductions and power-of-two scales: 8 MiB (13 chunks per request)
#: served 1386 images/s, 16 MiB (8 chunks) 1518 and 32 MiB (7 chunks, every
#: wave whole) 1502 (medians); each larger budget beat 8 MiB in all 6
#: rounds, and peak RSS read 74.85, 74.93 and 74.75 MB.  The 1-image
#: ResNet-18 (base width 8) and 4-image VGG-9 requests fit one chunk at
#: every budget.  (Earlier kernels preferred 8 MiB: with per-instance wave
#: results 16 and 32 MiB were 5-18% slower.)
_WAVE_CHUNK_BYTES = 32 * 1024 * 1024

#: Most passes of any Table-I LUT: the width of one instruction's fire record.
_MAX_PASSES = 5

#: Static per-opcode facts (enum property calls are too slow for the lowering
#: hot loop: a full-width resnet18 plan lowers ~500k instructions).
_OPCODE_META: Dict[APOpcode, Tuple[bool, bool, Optional[str]]] = {
    opcode: (opcode.is_arithmetic, opcode.is_inplace, opcode.lut_kind)
    for opcode in APOpcode
}

#: ``_LOW[w]``: the low ``w`` bits set, for every width a word can hold.
_LOW = np.array([(1 << width) - 1 for width in range(_WORD_BITS + 1)], np.uint64)

#: ``_POW2[k]``: ``2**k`` modulo ``2**64``.  Cast to a word dtype it is the
#: multiplier of a left shift by ``k`` (a count at or past the word's bits
#: wraps to 0, like the shift): NumPy multiplies narrow words in vector
#: loops but shifts ``uint8`` ones element by element.
_POW2 = np.array([(1 << k) % (1 << _WORD_BITS) for k in range(_WORD_BITS + 1)], np.uint64)

#: Fewest row vectors a row reduction must cover before it runs on
#: ``uint64`` lanes (see :func:`_lanes`): below it, the fold's fixed cost
#: exceeds what the lanes save.
_LANE_MIN_VECTORS = 256

#: Signed range of a ``w``-bit load, by width (the vectorized range check).
_SIGNED_MIN = np.array(
    [0] + [min_signed_value(width) for width in range(1, _WORD_BITS)], np.int64
)
_SIGNED_MAX = np.array(
    [0] + [max_signed_value(width) for width in range(1, _WORD_BITS)], np.int64
)

#: Operand widths above this fall back to the interpreter (int64 headroom).
_MAX_VECTOR_WIDTH = 60


@functools.lru_cache(maxsize=None)
def lut_truth_matrix(kind: str, inplace: bool) -> np.ndarray:
    """The ``8 x passes`` truth tensor of one Table-I LUT.

    Row ``state`` (encoded ``carry*4 + b*2 + a``) marks which passes of the
    LUT match a row that *starts* the bit position in that state, accounting
    for the in-pass evolution of the carry (and, for in-place tables, the B
    bit).  The construction also cross-checks the LUT's final state against
    the golden 1-bit reference, so an incorrectly ordered table is rejected
    here rather than silently miscounted.  Cached per ``(kind, inplace)``.
    """
    lut = get_lut(kind, inplace)
    matrix = np.zeros((8, len(lut.entries)), dtype=np.int64)
    for state in range(8):
        carry, b, a = (state >> 2) & 1, (state >> 1) & 1, state & 1
        state_carry, state_b, state_r = carry, b, 0
        for index, entry in enumerate(lut.entries):
            if (state_carry, state_b, a) == entry.search:
                matrix[state, index] = 1
                if lut.inplace:
                    state_carry, state_b = entry.write
                else:
                    state_carry, state_r = entry.write
        result = state_b if lut.inplace else state_r
        expected_result, expected_carry = reference_bit_op(kind, a, b, carry)
        if (result, state_carry) != (expected_result, expected_carry):
            raise SimulationError(
                f"LUT {lut.name} disagrees with the golden reference for "
                f"(carry={carry}, b={b}, a={a}); cannot vectorize"
            )
    return matrix


class BatchedBackend(ExecutionBackend):
    """Word-parallel NumPy instructions with byte-identical event accounting,
    plus whole-layer wave execution (:func:`execute_program_wave`)."""

    name = "batched"

    #: The inference engine checks this flag before routing a layer's payload
    #: wave to :func:`execute_program_wave` instead of per-tile dispatch.
    supports_program_wave = True

    def __init__(self, array: CAMArray, carry_column: int) -> None:
        super().__init__(array, carry_column)
        self._fallback = ReferenceBackend(array, carry_column)

    # ------------------------------------------------------------------
    def execute(self, instruction: APInstruction, active_rows: int) -> None:
        """Execute a single instruction on the current CAM contents."""
        opcode = instruction.opcode
        if opcode.is_arithmetic:
            self._execute_arithmetic(instruction, active_rows)
        elif opcode is APOpcode.COPY:
            self._execute_copy(instruction, active_rows)
        elif opcode is APOpcode.CLEAR:
            self._execute_clear(instruction, active_rows)
        else:  # pragma: no cover - defensive, enum is closed
            raise SimulationError(f"unsupported opcode {opcode!r}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _read_signed(self, region: ColumnRegion, active_rows: int) -> np.ndarray:
        """Sign-extended int64 value of a region per active row (no events)."""
        bits = self.array.peek_operand_bits(
            region.column, region.width, region.domain_offset, num_rows=active_rows
        )
        return pack_bits_int64(bits)

    def _read_planes(
        self, region: ColumnRegion, width: int, active_rows: int
    ) -> np.ndarray:
        """Region bit planes sign-extended to ``width`` bits (no events)."""
        bits = self.array.peek_operand_bits(
            region.column, region.width, region.domain_offset, num_rows=active_rows
        )
        if width <= region.width:
            return np.ascontiguousarray(bits[:, :width])
        # Clamped gather: logical bit positions beyond the region replay its
        # MSB, exactly like ColumnRegion.bit_position does for the hardware.
        columns = np.minimum(_bit_shifts(width), region.width - 1)
        return bits[:, columns]

    def _clear_carry(self, active_rows: int) -> None:
        """Analytic equivalent of the interpreter's carry-clearing write."""
        self.array.align(self.carry_column, 0)
        self.array.stats.write_phases += 1
        self.array.stats.written_bits += active_rows
        self.array.poke_operand_bits(
            self.carry_column, np.zeros((active_rows, 1), dtype=np.uint8), 0
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _arithmetic_needs_fallback(
        self, instruction: APInstruction, src_a: ColumnRegion, src_b: ColumnRegion
    ) -> bool:
        dest_columns = [d.column for d in instruction.all_dests]
        involved = [src_a.column, src_b.column] + dest_columns
        involved_regions = [src_a, src_b] + list(instruction.all_dests)
        return (
            self.carry_column in involved
            or len(set(dest_columns)) != len(dest_columns)
            or any(d in (src_a.column, src_b.column) for d in dest_columns[1:])
            or instruction.width > _MAX_VECTOR_WIDTH
            or any(r.width > _MAX_VECTOR_WIDTH for r in involved_regions)
        )

    def _execute_arithmetic(self, instruction: APInstruction, active_rows: int) -> None:
        src_a, src_b = self._prepare_arithmetic(instruction)
        if self._arithmetic_needs_fallback(instruction, src_a, src_b):
            self._fallback.execute(instruction, active_rows)
            return

        dest = instruction.dest
        opcode = instruction.opcode
        width = instruction.width
        extras = instruction.extra_dests
        array = self.array
        stats = array.stats

        if not opcode.is_inplace:
            array.clear_operand(dest.column, dest.width, dest.domain_offset)
            for extra in extras:
                array.clear_operand(extra.column, extra.width, extra.domain_offset)

        truth = lut_truth_matrix(opcode.lut_kind, opcode.is_inplace)
        num_passes = truth.shape[1]
        self._clear_carry(active_rows)

        # ------------------------------------------------------------------
        # Word-parallel result and carry/borrow chain.  The operands' bit
        # planes come straight out of the stored uint8 state; a clamped
        # gather reproduces the controller's MSB re-alignment (sign
        # extension) for sources narrower than the instruction width.
        # ------------------------------------------------------------------
        a_planes = self._read_planes(src_a, width, active_rows)
        b_planes = self._read_planes(src_b, width, active_rows)
        a_values = pack_bits_int64(a_planes)
        b_values = pack_bits_int64(b_planes)
        if opcode.lut_kind == "add":
            results = a_values + b_values
        else:
            results = b_values - a_values
        # carries[k] (bit k) is the carry/borrow INTO bit position k.
        carries = a_values ^ b_values ^ results

        # ------------------------------------------------------------------
        # Exact event accounting via the per-LUT truth tensor.
        # ------------------------------------------------------------------
        shifts = _bit_shifts(width)
        states = ((carries[:, None] >> shifts) & 1).astype(np.uint8)
        states <<= 1
        states |= b_planes
        states <<= 1
        states |= a_planes
        histogram = np.bincount(
            (states.astype(np.int64) + 8 * shifts).ravel(), minlength=8 * width
        ).reshape(width, 8)
        match_counts = histogram @ truth  # (width, passes) matching active rows
        fired = match_counts > 0

        stats.search_phases += width * num_passes
        stats.searched_bits += width * num_passes * 3 * array.rows
        stats.write_phases += int(fired.sum())
        written_columns = 2 if opcode.is_inplace else 2 + len(extras)
        stats.written_bits += int(match_counts.sum()) * written_columns

        # Shift accounting: within one bit position every involved column is
        # aligned to a single target (the carry port is already at 0 after
        # the carry-clearing write), and those targets advance monotonically
        # with the bit position, so one align_run per column reproduces the
        # interpreter's step counts and final port positions.
        array.align_run(src_b.column, src_b.bit_position(0), src_b.bit_position(width - 1))
        array.align_run(src_a.column, src_a.bit_position(0), src_a.bit_position(width - 1))
        if not opcode.is_inplace:
            write_bits = np.flatnonzero(fired.any(axis=1))
            if write_bits.size:
                first, last = int(write_bits[0]), int(write_bits[-1])
                array.align_run(
                    dest.column, dest.domain_offset + first, dest.domain_offset + last
                )
                for extra in extras:
                    array.align_run(
                        extra.column,
                        extra.domain_offset + first,
                        extra.domain_offset + last,
                    )

        # ------------------------------------------------------------------
        # Commit the result state (active rows only; the rest is untouched).
        # ------------------------------------------------------------------
        result_region = src_b if opcode.is_inplace else dest
        result_planes = ((results[:, None] >> shifts) & 1).astype(np.uint8)
        array.poke_operand_bits(
            result_region.column, result_planes, result_region.domain_offset
        )
        if extras:
            fired_by_state = truth.any(axis=1)  # (8,) per initial state
            for extra in extras:
                if extra.width >= width:
                    array.poke_operand_bits(
                        extra.column, result_planes, extra.domain_offset
                    )
                else:
                    # Only extra.width bits were pre-zeroed: above them, bit
                    # positions of rows whose state fires no pass keep their
                    # stale contents, exactly as the interpreter leaves them.
                    old = self.array.peek_operand_bits(
                        extra.column, width, extra.domain_offset, num_rows=active_rows
                    )
                    array.poke_operand_bits(
                        extra.column,
                        np.where(fired_by_state[states], result_planes, old),
                        extra.domain_offset,
                    )
        carry_out = ((carries >> np.int64(width)) & 1).astype(np.uint8)
        array.poke_operand_bits(self.carry_column, carry_out[:, None], 0)

    # ------------------------------------------------------------------
    # Copy
    # ------------------------------------------------------------------
    def _execute_copy(self, instruction: APInstruction, active_rows: int) -> None:
        src = instruction.src_a
        assert src is not None
        dests = instruction.all_dests
        width = instruction.width
        dest_columns = [d.column for d in dests]
        if (
            src.column in dest_columns
            or len(set(dest_columns)) != len(dest_columns)
            or width > _MAX_VECTOR_WIDTH
            or src.width > _MAX_VECTOR_WIDTH
        ):
            self._fallback.execute(instruction, active_rows)
            return

        array = self.array
        stats = array.stats
        values = self._read_signed(src, active_rows)
        bits = ((values[:, None] >> _bit_shifts(width)) & 1).astype(np.uint8)
        ones = bits.sum(axis=0, dtype=np.int64)  # per bit, among active rows
        zeros = active_rows - ones

        stats.search_phases += 2 * width
        stats.searched_bits += 2 * width * array.rows
        stats.write_phases += int((ones > 0).sum() + (zeros > 0).sum())
        stats.written_bits += width * active_rows * len(dests)

        array.align_run(src.column, src.bit_position(0), src.bit_position(width - 1))
        if active_rows:
            for dest in dests:
                array.align_run(
                    dest.column, dest.domain_offset, dest.domain_offset + width - 1
                )

        for dest in dests:
            self.array.poke_operand_bits(dest.column, bits, dest.domain_offset)

    # ------------------------------------------------------------------
    # Clear
    # ------------------------------------------------------------------
    def _execute_clear(self, instruction: APInstruction, active_rows: int) -> None:
        array = self.array
        stats = array.stats
        for dest in instruction.all_dests:
            array.align_run(
                dest.column, dest.domain_offset, dest.domain_offset + dest.width - 1
            )
            stats.write_phases += dest.width
            stats.written_bits += dest.width * active_rows
            array.poke_operand_bits(
                dest.column,
                np.zeros((active_rows, dest.width), dtype=np.uint8),
                dest.domain_offset,
            )


# ----------------------------------------------------------------------
# Per-LUT pass tables (shared by every arithmetic record)
# ----------------------------------------------------------------------
def _lut_states(kind: str, inplace: bool) -> Optional[np.ndarray]:
    """The initial ``(carry, b, a)`` state each pass of a LUT matches, or
    ``None`` when the LUT has no minterm form.

    The form exists when every pass matches exactly one state and each state
    fires at most one pass (the truth tensor is a partial permutation); then
    a pass fires exactly on its state's bits.
    """
    truth = lut_truth_matrix(kind, inplace)
    if (truth.sum(axis=0) == 1).all() and (truth.sum(axis=1) <= 1).all():
        return truth.argmax(axis=0)
    return None


#: The four Table-I LUTs; an arithmetic record carries its index.
_LUT_KINDS = (("add", False), ("add", True), ("sub", False), ("sub", True))
_LUT_INDEX = {key: index for index, key in enumerate(_LUT_KINDS)}
_LUT_STATES = tuple(_lut_states(kind, inplace) for kind, inplace in _LUT_KINDS)

#: Pass tables padded to :data:`_MAX_PASSES`, so one group can mix all four
#: LUTs.  ``_FLIPS[literal, pass, lut]`` is ``-1`` where the pass searches a
#: 0 bit of literal ``(carry, b, a)[literal]`` (``x ^ flip`` is then the
#: literal, and the AND of the three is the pass's minterm word), ``0``
#: where it searches a 1 bit; ``_PASSES[pass, lut]`` says whether the LUT
#: has that pass (a padded pass is masked to an empty minterm, so it never
#: fires).  ``_SIGNS[lut]`` gives ``result = b + sign * a``.
_FLIPS = np.zeros((3, _MAX_PASSES, len(_LUT_KINDS)), dtype=np.int64)
_PASSES = np.zeros((_MAX_PASSES, len(_LUT_KINDS)), dtype=bool)
for _lut, _states in enumerate(_LUT_STATES):
    for _pass, _state in enumerate(() if _states is None else _states):
        _PASSES[_pass, _lut] = True
        _FLIPS[:, _pass, _lut] = ((int(_state) >> np.array([2, 1, 0])) & 1) - 1
_SIGNS = np.array([1 if kind == "add" else -1 for kind, _ in _LUT_KINDS], np.int64)

#: Group kinds: every record of a group has the same one.
_ARITH, _COPY, _CLEAR = range(3)

#: Fields of one lowered record (``int`` entries of ``_Lowering.records``):
#: group kind, LUT index (arithmetic), source A and B regions (column,
#: offset, width), instruction width, fire slot, the one destination written
#: (column, offset, cleared width), whether it is a narrow extra destination
#: and its dataflow level (see :meth:`_Lowering.level`).
(
    _KIND, _LUT, _A_COL, _A_OFF, _A_WIDTH, _B_COL, _B_OFF, _B_WIDTH,
    _WIDTH, _SLOT, _D_COL, _D_OFF, _D_WIDTH, _NARROW, _LEVEL,
) = range(15)
_FIELDS = 15


# ----------------------------------------------------------------------
# Wave compilation: APProgram -> records, accounting and definedness
# ----------------------------------------------------------------------
class _CompiledWaveProgram:
    """One program lowered for wave execution (valid for a geometry).

    ``records`` holds one fixed-size integer record per destination write, in
    program order, each with its dataflow level (an instruction with several
    destinations lowers to one record per destination; re-evaluating it is
    exact because destinations never alias its sources).  The operand bindings
    are ``load_names`` with one ``(column, offset, width)`` triple per load in
    ``load_table``, and ``read_names`` (sorted: the slot order of the stacked
    readout) with one ``(column, offset, width, negated)`` quadruple per
    output in ``output_table``.  Besides those it holds the program's
    data-independent accounting from :class:`_Lowering`: the alignment events,
    the per-slot width masks and written-column counts, and the static counter
    totals.  ``self_contained`` says whether every source and output read
    touches only domains the program defined itself; ``clean`` whether every
    domain it writes is defined afterwards (not so above a narrow extra
    destination over undefined domains), and ``defined`` holds the mask of its
    defined domains per column.
    """

    __slots__ = (
        "load_names",
        "load_table",
        "read_names",
        "output_table",
        "records",
        "slot_widths",
        "slot_columns",
        "copy_slots",
        "events",
        "search_phases",
        "searched_per_row",
        "write_phases",
        "written_per_row",
        "loaded_per_row",
        "read_per_row",
        "self_contained",
        "clean",
        "defined",
    )

    def __init__(self, program: APProgram, lowering: "_Lowering") -> None:
        self.load_names = tuple(program.input_columns)
        self.load_table = array(
            "i",
            [
                field
                for region in program.input_columns.values()
                for field in (region.column, region.domain_offset, region.width)
            ],
        )
        self.loaded_per_row = sum(self.load_table[2::3])
        negated = program.output_negated
        outputs = sorted(program.output_columns.items())
        self.read_names = tuple(name for name, _ in outputs)
        self.output_table = array(
            "i",
            [
                field
                for name, region in outputs
                for field in (
                    region.column,
                    region.domain_offset,
                    region.width,
                    bool(negated.get(name, False)),
                )
            ],
        )
        self.read_per_row = sum(self.output_table[2::4])
        # An output read of a domain the program never defined makes it
        # read what a predecessor left.
        defined = lowering.defined
        for _, region in outputs:
            needed = ((1 << region.width) - 1) << region.domain_offset
            if defined.get(region.column, 0) & needed != needed:
                lowering.self_contained = False
                break
        self.records = array("i", lowering.records)
        self.slot_widths = lowering.slot_widths
        self.slot_columns = lowering.slot_columns
        self.copy_slots = lowering.copy_slots
        self.events = lowering.events
        self.search_phases = lowering.search_phases
        self.searched_per_row = lowering.searched_per_row
        self.write_phases = lowering.write_phases
        self.written_per_row = lowering.written_per_row
        self.self_contained = lowering.self_contained
        self.clean = lowering.clean
        self.defined = array("Q", bytes(8 * lowering.columns))
        for column, mask in lowering.defined.items():
            self.defined[column] = mask

    def load_widths(self) -> Dict[str, int]:
        """Operand name -> loaded region width."""
        return dict(zip(self.load_names, self.load_table[2::3]))


def _region_fits(region: ColumnRegion, columns: int, domains: int) -> bool:
    return region.column < columns and region.end_domain <= domains


class _Lowering:
    """Accumulates one program's records, fire slots, events, counters,
    defined domains and dataflow levels."""

    def __init__(self, carry: int, columns: int, domains: int) -> None:
        self.carry = carry
        self.columns = columns
        self.domains = domains
        #: Flat record fields, packed into an ``array('i')`` once lowered.
        self.records: List[int] = []
        self.slot_widths = array("i")
        self.slot_columns = array("i")
        self.copy_slots = array("i")
        #: Flat ``column, first, last, slot`` quadruples in program order
        #: (packed ints, not one tuple per event: less memory, fewer objects
        #: for the garbage collector to traverse).
        self.events = array("i")
        self.search_phases = 0
        self.searched_per_row = 0
        self.write_phases = 0
        self.written_per_row = 0
        #: Column -> bitmask of the domains the program has defined so far.
        self.defined: Dict[int, int] = {}
        #: Per column: the level of the last record that wrote / read it.
        self.written = [-1] * columns
        self.read = [-1] * columns
        self.self_contained = True
        self.clean = True

    def define(self, column: int, offset: int, width: int) -> None:
        defined = self.defined
        defined[column] = defined.get(column, 0) | (((1 << width) - 1) << offset)

    def level(self, column: int, sources: Tuple[int, ...]) -> int:
        """The level of a record that reads ``sources`` and writes
        ``column``: one past the last write of any of them (RAW and WAW
        edges) and one past the last read of ``column`` (WAR edge).  The
        WAR edge is strict because same-level groups of different kinds run
        one after another.  Records the write and the reads (an
        instruction's destinations are never its sources, so the records of
        one instruction do not see each other's reads)."""
        written, read = self.written, self.read
        level = max(written[column], read[column])
        for source in sources:
            if written[source] > level:
                level = written[source]
        level += 1
        written[column] = level
        for source in sources:
            if read[source] < level:
                read[source] = level
        return level

    def use(self, region: ColumnRegion) -> None:
        """A read of ``region``: the program stops being self-contained if
        any of its domains is not yet the program's own."""
        needed = ((1 << region.width) - 1) << region.domain_offset
        if self.defined.get(region.column, 0) & needed != needed:
            self.self_contained = False

    def _slot(self, width: int, written_columns: int) -> int:
        self.slot_widths.append(width)
        self.slot_columns.append(written_columns)
        return len(self.slot_widths) - 1

    def _source_run(self, region: ColumnRegion, width: int) -> Optional[tuple]:
        """The data-independent alignment run of a source over bits
        ``0..width-1`` (MSB replayed past the region), or ``None`` when the
        region is out of bounds."""
        column, offset, region_width = region.column, region.domain_offset, region.width
        if (
            column >= self.columns
            or region_width > _MAX_VECTOR_WIDTH
            or offset + region_width > self.domains
        ):
            return None
        return (column, offset, offset + min(width, region_width) - 1, -1)

    def _fits(self, region: ColumnRegion, width: int) -> bool:
        return (
            region.column < self.columns
            and region.domain_offset + width <= self.domains
        )

    def instruction(self, instruction) -> bool:
        """Lower one instruction; ``False`` if it needs the per-instance path
        (any per-instruction-fallback shape or geometry the per-instance backends
        would reject with a proper error)."""
        is_arith, inplace, lut_kind = _OPCODE_META[instruction.opcode]
        if is_arith:
            return self._arith(instruction, inplace, lut_kind)
        if instruction.opcode is APOpcode.COPY:
            return self._copy(instruction)
        if instruction.opcode is APOpcode.CLEAR:
            return self._clear(instruction)
        return False  # pragma: no cover - enum is closed

    def _arith(self, instruction, inplace: bool, lut_kind: str) -> bool:
        src_a, src_b = instruction.src_a, instruction.src_b
        dest = instruction.dest
        if src_a is None or src_b is None:
            return False
        if inplace and lut_kind == "add" and dest == src_a:
            src_a, src_b = src_b, src_a
        a_col, b_col = src_a.column, src_b.column
        carry = self.carry
        width = dest.width
        extra_dests = instruction.extra_dests
        if (
            a_col == b_col
            or carry == a_col
            or carry == b_col
            or width > _MAX_VECTOR_WIDTH
        ):
            return False
        run_b = self._source_run(src_b, width)
        run_a = self._source_run(src_a, width)
        lut = _LUT_INDEX[lut_kind, inplace]
        states = _LUT_STATES[lut]
        if run_a is None or run_b is None or states is None:
            return False
        # Carry-clearing write: one tagged write phase over every row, with
        # the carry port aligned to domain 0 (searches then stay there).
        events = (carry, 0, 0, -1) + run_b + run_a
        slot = len(self.slot_widths)
        a_off, a_width = src_a.domain_offset, src_a.width
        b_off, b_width = src_b.domain_offset, src_b.width
        if inplace:
            if dest != src_b or extra_dests:
                return False
            targets: Tuple[tuple, ...] = ((b_col, b_off, width, 0),)
        else:
            seen_columns = {a_col, b_col, carry}
            targets = ()
            for region in instruction.all_dests:
                column, offset = region.column, region.domain_offset
                region_width = region.width
                # Narrow extra destinations are blended over ``width`` bits.
                if (
                    column in seen_columns
                    or column >= self.columns
                    or region_width > _MAX_VECTOR_WIDTH
                    or offset + max(region_width, width) > self.domains
                ):
                    return False
                seen_columns.add(column)
                targets += ((column, offset, region_width, int(region_width < width)),)
                events += (column, offset, offset, slot)
        defined = self.defined
        need_a = ((1 << a_width) - 1) << a_off
        need_b = ((1 << b_width) - 1) << b_off
        if (
            defined.get(a_col, 0) & need_a != need_a
            or defined.get(b_col, 0) & need_b != need_b
        ):
            self.self_contained = False
        sources = (_ARITH, lut, a_col, a_off, a_width, b_col, b_off, b_width)
        sources += (width, slot)
        read = (a_col, b_col)
        for column, offset, cleared, narrow in targets:
            level = self.level(column, read)
            self.records.extend(sources + (column, offset, cleared, narrow, level))
            mask = defined.get(column, 0)
            if narrow:
                # Above its own width, a narrow destination keeps the stale
                # bits of rows no pass fired on: defined only if they were.
                upper = ((1 << (width - cleared)) - 1) << (offset + cleared)
                if mask & upper != upper:
                    self.clean = False
            defined[column] = mask | (((1 << cleared) - 1) << offset)
        self.events.extend(events)
        self._slot(width, 2 if inplace else 2 + len(extra_dests))
        self.write_phases += 1
        self.written_per_row += 1
        self.search_phases += width * len(states)
        self.searched_per_row += 3 * width * len(states)
        return True

    def _copy(self, instruction) -> bool:
        src = instruction.src_a
        if src is None:
            return False
        width = instruction.width
        if width > _MAX_VECTOR_WIDTH or src.column == self.carry:
            return False
        dests = instruction.all_dests
        seen_columns = {src.column}
        # Every destination receives ``width`` bits at its own offset.
        for region in dests:
            column = region.column
            if column in seen_columns or not self._fits(region, width):
                return False
            seen_columns.add(column)
        run = self._source_run(src, width)
        if run is None:
            return False
        self.events.extend(run)
        slot = self._slot(width, 0)
        self.copy_slots.append(slot)
        self.use(src)
        # The single source fills both source fields of the record.
        source = (src.column, src.domain_offset, src.width)
        read = (src.column,)
        for region in dests:
            offset = region.domain_offset
            level = self.level(region.column, read)
            self.records.extend(
                (_COPY, 0) + source + source + (width, slot, region.column, offset)
                + (width, 0, level)
            )
            self.define(region.column, offset, width)
            self.events.extend((region.column, offset, offset + width - 1, -1))
        self.search_phases += 2 * width
        self.searched_per_row += 2 * width
        self.written_per_row += width * len(dests)
        return True

    def _clear(self, instruction) -> bool:
        dests = instruction.all_dests
        for region in dests:
            if not _region_fits(region, self.columns, self.domains):
                return False
        for region in dests:
            column, offset, width = region.column, region.domain_offset, region.width
            self.records.extend(
                (_CLEAR, 0, 0, 0, 0, 0, 0, 0, width, 0, column, offset, width, 0)
                + (self.level(column, ()),)
            )
            self.define(column, offset, width)
            self.events.extend((column, offset, offset + width - 1, -1))
            self.write_phases += width
            self.written_per_row += width
        return True


def compile_program_wave(
    program: APProgram, columns: int, domains: int
) -> Optional[_CompiledWaveProgram]:
    """Lower ``program`` for wave execution on a ``columns x domains`` AP.

    Returns ``None`` when any instruction or operand binding needs the
    per-instance path.  Results are memoised on the program object (compiled
    slice programs are shared across tiles, images and requests, so the
    lowering cost is paid once per program per geometry).
    """
    cache = program.__dict__.get("_wave_compiled")
    if cache is None:
        cache = program.__dict__["_wave_compiled"] = {}
    key = (columns, domains)
    if key in cache:
        return cache[key]
    compiled = _compile_program_wave(program, columns, domains)
    cache[key] = compiled
    return compiled


def _compile_program_wave(
    program: APProgram, columns: int, domains: int
) -> Optional[_CompiledWaveProgram]:
    carry = program.carry_column
    if not (0 <= carry < columns) or not (1 <= domains <= _WORD_BITS):
        logger.debug(
            "wave lowering declined: carry/geometry (carry=%d columns=%d domains=%d)",
            carry, columns, domains,
        )
        return None
    for bindings in (program.input_columns, program.output_columns):
        for region in bindings.values():
            width = region.width
            if (
                region.column >= columns
                or region.domain_offset + width > domains
                or width > _MAX_VECTOR_WIDTH
            ):
                logger.debug("wave lowering declined: operand binding outside geometry")
                return None
    if any(region.column == carry for region in program.output_columns.values()):
        logger.debug("wave lowering declined: output bound to the carry column")
        return None
    lowering = _Lowering(carry, columns, domains)
    for region in program.input_columns.values():
        lowering.define(region.column, region.domain_offset, region.width)
    for instruction in program.instructions:
        if not lowering.instruction(instruction):
            logger.debug(
                "wave lowering declined: instruction %s needs per-instance path",
                instruction.opcode.name,
            )
            return None
    return _CompiledWaveProgram(program, lowering)


# ----------------------------------------------------------------------
# Host-staged operand batches (the wave-native input form)
# ----------------------------------------------------------------------
class StagedWaveInputs:
    """Operand batches staged by the host for one wave group.

    ``values[j][name]`` is one ``(instances, rows)`` integer batch per
    program ``j`` and operand name: every instance's operand rows as views
    (or one vectorized gather) of the layer's lowered operand tensor.  The
    wave stacks each block's batches once, range-checks them and casts
    them to the kernel's word form.

    Byte-identical to the per-instance dict form by construction: the staged
    arrays hold exactly the rows each instance's payload dict would have
    carried.
    """

    __slots__ = ("instances", "rows", "values")

    def __init__(
        self,
        instances: int,
        rows: int,
        values: Sequence[Mapping[str, np.ndarray]],
    ) -> None:
        self.instances = instances
        self.rows = rows
        self.values = values

    def __len__(self) -> int:
        return self.instances


def wave_staging_plan(
    programs: Sequence[APProgram],
    columns: int,
    rows: int,
    technology: Optional[RTMTechnology] = None,
    carry_column: int = 0,
) -> Optional[List[Dict[str, int]]]:
    """Pre-flight one ``rows x columns`` tile's programs for host-staged wave
    execution.

    Lowers every program for the wave geometry and builds the tile's
    lockstep schedule and replay plan (all memoised - calling this at deploy
    time moves the whole lowering, scheduling and replay-planning cost out
    of the serving window).  Returns,
    per program, the operand name -> region width map the host stages, or
    ``None`` when any program would decline wave execution, so the caller
    can route the layer to the per-payload path up front.
    """
    technology = technology or DEFAULT_RTM_TECHNOLOGY
    domains = technology.domains_per_nanowire
    if columns < 1 or rows < 1 or domains > _WORD_BITS:
        return None
    if not programs:
        return []
    sequence = _sequence(programs, rows, columns, domains, carry_column, False)
    if sequence is None:
        return None
    return [lowered.load_widths() for lowered in sequence.compiled]


class WaveGather:
    """A wave's operands as one gather from a layer's codes.

    ``codes`` is a ``(1 + features, images)`` array in the tile schedule's
    word dtype: row 0 is zero (the id of every padding element) and row
    ``1 + f`` holds each image's code of feature ``f`` as its two's
    complement.  ``index[b]`` is lockstep block ``b``'s ``(loads, tiles,
    rows)`` array of feature ids, from :func:`wave_gather_index` at deploy.
    Instance ``i`` is image ``i // tiles`` on tile ``i % tiles``, and one
    ``take`` per block lays out the block's loads; with images innermost,
    each feature id it takes moves every image's code at once.  No code is
    range-checked: the caller vouches that every code fits every load width.
    """

    __slots__ = ("codes", "index", "tiles", "rows")

    def __init__(
        self, codes: np.ndarray, index: Sequence[np.ndarray], tiles: int, rows: int
    ) -> None:
        self.codes = codes
        self.index = index
        self.tiles = tiles
        self.rows = rows

    def __len__(self) -> int:
        return self.codes.shape[1] * self.tiles


def wave_gather_index(
    programs: Sequence[APProgram],
    staged: StagedWaveInputs,
    rows: int,
    columns: int,
    technology: Optional[RTMTechnology] = None,
    carry_column: int = 0,
) -> Optional[Tuple[np.dtype, List[np.ndarray]]]:
    """The deploy-time half of :class:`WaveGather`.

    Returns the tile schedule's word dtype and ``staged``'s batches in each
    lockstep block's load order, one ``(loads, instances, rows)`` int64
    array per block - the kernel's layout, neither range-checked nor cast.
    Staged from an image of feature ids rather than codes, these arrays are
    the gather indices of every block's loads.  ``None`` when the programs
    decline a wave or a batch is missing or malformed.
    """
    technology = technology or DEFAULT_RTM_TECHNOLOGY
    domains = technology.domains_per_nanowire
    if columns < 1 or rows < 1 or domains > _WORD_BITS or staged.rows != rows:
        return None
    if not programs:
        return _WORD_DTYPES[0], []
    sequence = _sequence(programs, rows, columns, domains, carry_column, False)
    if sequence is None:
        return None
    blocks = _block_operands(sequence.schedule, sequence.compiled, staged, rows)
    if blocks is None:
        return None
    return sequence.schedule.word, blocks


class _WaveSequence:
    """A tile's program sequence as the kernel runs it: the lowered programs,
    their lockstep schedule and their replay plan.

    Memoised on the first program, keyed by the geometry, the carry column,
    the block width and the identity of every program; it holds the
    programs themselves, so no key outlives the objects it names.
    """

    __slots__ = ("programs", "compiled", "schedule", "plan")

    def __init__(self, programs, compiled, schedule, plan) -> None:
        self.programs = programs
        self.compiled = compiled
        self.schedule = schedule
        self.plan = plan


def _sequence(
    programs: Sequence[APProgram],
    rows: int,
    columns: int,
    domains: int,
    carry_column: int,
    decline: bool,
) -> Optional[_WaveSequence]:
    """The :class:`_WaveSequence` of a non-empty program sequence, built on
    first use (by :func:`wave_staging_plan`, at deploy) and found with one
    lookup afterwards; ``None`` when a program cannot run in a wave, with
    a :func:`_decline` if ``decline``."""
    width = _block_width(len(programs), rows, columns)
    key = (columns, domains, carry_column, width, *map(id, programs))
    memo = programs[0].__dict__.get("_wave_sequences")
    if memo is None:
        memo = programs[0].__dict__["_wave_sequences"] = {}
    sequence = memo.get(key)
    if sequence is not None:
        return sequence
    compiled: List[_CompiledWaveProgram] = []
    for program in programs:
        if program.carry_column != carry_column:
            if decline:
                _decline(
                    "carry-mismatch", program=program.carry_column, wave=carry_column
                )
            return None
        lowered = compile_program_wave(program, columns, domains)
        if lowered is None:
            if decline:
                _decline("program-lowering", columns=columns, domains=domains)
            return None
        compiled.append(lowered)
    sequence = memo[key] = _WaveSequence(
        tuple(programs),
        compiled,
        _schedule(compiled, rows, columns),
        _ReplayPlan(compiled),
    )
    return sequence


# ----------------------------------------------------------------------
# Per-sequence accounting and the lockstep schedule
# ----------------------------------------------------------------------
class _ReplayPlan:
    """Data-independent accounting of one program sequence.

    Concatenates the programs' fire slots and alignment events, and splits
    the events by column: a column without data-dependent runs has the same
    shift steps on every instance (summed once here), the others are
    replayed per instance by :func:`_replay`.
    """

    def __init__(self, compiled: Sequence[_CompiledWaveProgram]) -> None:
        # Program-local fire slots become wave slots.
        bases = np.cumsum([0] + [len(p.slot_widths) for p in compiled][:-1])
        widths = _flat_table([p.slot_widths for p in compiled], 1)[:, 0]
        self.slots = len(widths)
        self.slot_masks = (np.int64(1) << widths) - 1
        self.slot_columns = _flat_table([p.slot_columns for p in compiled], 1)[:, 0]
        copies = _flat_table([p.copy_slots for p in compiled], 1)[:, 0]
        copies += np.repeat(bases, [len(p.copy_slots) for p in compiled])
        self.copy_slots = copies.astype(np.intp)
        table = _flat_table([p.events for p in compiled], 4)
        event_bases = np.repeat(bases, [len(p.events) // 4 for p in compiled])
        fired = table[:, 3] >= 0  # (static runs keep slot -1)
        table[fired, 3] += event_bases[fired]
        self.search_phases = sum(p.search_phases for p in compiled)
        self.searched_per_row = sum(p.searched_per_row for p in compiled)
        self.write_phases = sum(p.write_phases for p in compiled)
        self.written_per_row = sum(p.written_per_row for p in compiled)
        self.loaded_per_row = sum(p.loaded_per_row for p in compiled)
        self.read_per_row = sum(p.read_per_row for p in compiled)

        mixed = np.isin(table[:, 0], table[fired, 0])
        static = _sorted_events(table[~mixed])
        # Every run of a static column is active on every instance.
        self.static_steps = int(
            _steps(
                static[:, 1:2],
                static[:, 2:3],
                np.ones((len(static), 1), dtype=bool),
                static[:, 4],
            ).sum()
        )
        self.events = _sorted_events(table[mixed])
        self.dynamic = np.flatnonzero(self.events[:, 3] >= 0)
        self.dynamic_slots = self.events[self.dynamic, 3]


def _block_width(programs: int, rows: int, columns: int) -> int:
    """Programs per lockstep block for a ``rows x columns`` tile."""
    return max(1, min(programs, _BLOCK_WORDS // (rows * columns)))


def _word_dtype(deepest: int) -> np.dtype:
    """The narrowest word dtype with a spare bit above domains ``0 ..
    deepest - 1``.

    The spare bit keeps every sign-extended region read, its negation and
    ``b +/- a`` exact in the word's signed view.  ``uint64`` takes the rest:
    regions are at most :data:`_MAX_VECTOR_WIDTH` bits wide, so a region
    ending at its top bit still cannot overflow when negated.
    """
    for dtype in _WORD_DTYPES:
        if deepest < 8 * dtype.itemsize:
            return dtype
    return _WORD_DTYPES[-1]


def _schedule(
    compiled: Sequence[_CompiledWaveProgram], rows: int, columns: int
) -> "_Schedule":
    """The :class:`_Schedule` of a program sequence on a tile shape."""
    return _Schedule(compiled, columns, _block_width(len(compiled), rows, columns))


class _Block:
    """One lockstep block: programs ``[start, stop)`` of the sequence side by
    side, with their spans of the schedule's group, record, load and output
    arrays.  Its groups are the runs of equal (level, kind) of its records,
    in level order.

    ``seeded`` blocks start their first slice from the true AP state before
    ``start`` (zeros on a fresh AP); ``tracks`` blocks are followed by a
    seeded block, so the kernel composes the true state after them.
    ``rounds`` splits the loads into scatters that each hit distinct words
    (``None``: a single scatter).
    """

    __slots__ = (
        "start", "stop", "seeded", "tracks", "groups", "records", "loads",
        "rounds", "outputs",
    )

    def __init__(
        self, start, stop, seeded, tracks, groups, records, loads, rounds, outputs
    ):
        self.start = start
        self.stop = stop
        self.seeded = seeded
        self.tracks = tracks
        self.groups = groups
        self.records = records
        self.loads = loads
        self.rounds = rounds
        self.outputs = outputs


def _flat_table(arrays: Sequence[array], fields: int) -> np.ndarray:
    """Concatenated ``array('i')`` tables as one ``(rows, fields)`` int64
    array."""
    flat = np.frombuffer(b"".join(arrays), dtype=np.intc)
    return flat.reshape(-1, fields).astype(np.int64)


class _Schedule:
    """The lockstep form of one program sequence for one tile shape.

    Each block's records are sorted by (level, kind, program order) - one
    ``np.lexsort`` over the sequence, block first - and every run of equal
    (level, kind) is one group: the block's records of one dataflow depth
    and kind, which write distinct words and read none that another of them
    writes.

    Struct-of-arrays, compact at rest: the record fields are contiguous
    int32/uint8 arrays with one entry per lowered record, in group order
    across all blocks (sources have two entries per record, see below).
    ``idx`` fields are flat word indices ``slice * columns + column`` into a
    block's state; shift counts (shaped ``(n, 1, 1)``) and widths are bytes.
    ``word`` is the state's unsigned dtype, fitted to the deepest domain
    the sequence touches (:func:`_word_dtype`), and ``signed`` its signed
    view; shifts are relative to its bit count.  Per block and run, the
    kernel widens its span once - indices to ``intp``, left shift counts to
    power-of-two scales (:data:`_POW2`) and right shift counts to the word
    dtypes, widths to masks and keep words - so no group operation casts and
    a group slice broadcasts over ``(instances, rows)``.  ``groups`` is one
    ``(kind, first, stop, narrow)`` int32 row per group, its span relative
    to the block's first record.  Loads and outputs are laid out the same
    way, in program order.  :meth:`chunk` prices one instance against
    :data:`_WAVE_CHUNK_BYTES`, with group temporaries for the records of the
    largest group of any block (which can far outnumber the block's
    programs: a wide adder tree fills its first level).
    """

    __slots__ = (
        "columns", "word", "signed", "blocks", "groups",
        "lut", "src_idx", "src_left", "src_right", "width", "slot",
        "t_idx", "t_width", "t_shift", "t_narrow",
        "l_idx", "l_width", "l_offset",
        "r_idx", "r_left", "r_right", "r_sign",
        "outputs", "row_bytes", "defined",
    )

    def __init__(
        self, compiled: Sequence[_CompiledWaveProgram], columns: int, width: int
    ) -> None:
        self.columns = columns
        programs = len(compiled)
        # The last program that reads stale state: the true AP state must be
        # composed up to it, so before it dirty programs start blocks too.
        last_seed = max(
            (k for k in range(1, programs) if not compiled[k].self_contained),
            default=0,
        )
        starts = [0]
        for k in range(1, programs):
            lowered = compiled[k]
            if (
                k - starts[-1] >= width
                or not lowered.self_contained
                or (k < last_seed and not lowered.clean)
            ):
                starts.append(k)
        stops = starts[1:] + [programs]
        # Each program's slice in its block: every column becomes a flat word
        # index ``slice * columns + column`` of the block state.
        block_of = np.repeat(np.arange(len(starts)), np.subtract(stops, starts))
        bases = (np.arange(programs) - np.asarray(starts)[block_of]) * columns

        # Records stay program-major, so each block keeps its record range.
        counts = np.array([len(p.records) // _FIELDS for p in compiled])
        firsts = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(programs), counts)
        table = _flat_table([p.records for p in compiled], _FIELDS)
        # Program-local fire slots become sequence slots.
        slot_bases = np.cumsum([0] + [len(p.slot_widths) for p in compiled])
        table[:, _SLOT] += slot_bases[owner]
        table[:, (_A_COL, _B_COL, _D_COL)] += bases[owner, None]
        # Within each block, records run by (level, kind, program order);
        # a group is a run of equal (block, level, kind).  (Records are
        # already block-major, so ``record_block`` stays sorted.)
        record_block = block_of[owner]
        table = table[
            np.lexsort((table[:, _KIND], table[:, _LEVEL], record_block))
        ]
        key = np.column_stack([record_block, table[:, _LEVEL], table[:, _KIND]])
        breaks = np.ones(len(table) + 1, dtype=bool)
        breaks[1:-1] = (key[1:] != key[:-1]).any(axis=1)
        bounds = np.flatnonzero(breaks)
        group_firsts, group_stops = bounds[:-1], bounds[1:]
        group_block = record_block[group_firsts]
        block_groups = np.searchsorted(group_block, np.arange(len(starts) + 1))
        # Group spans relative to their block's first record.
        offsets = firsts[np.asarray(starts)][group_block]
        narrow = (
            np.maximum.reduceat(table[:, _NARROW], group_firsts)
            if len(group_firsts)
            else np.zeros(0, dtype=np.int64)
        )
        self.groups = np.column_stack(
            [
                table[group_firsts, _KIND],
                group_firsts - offsets,
                group_stops - offsets,
                narrow,
            ]
        ).astype(np.int32)
        sizes = group_stops - group_firsts
        # Per record: the first and stop record of its group.
        span_of = np.repeat(np.column_stack([group_firsts, group_stops]), sizes, axis=0)

        load_counts = np.array([len(p.load_names) for p in compiled])
        loads = _flat_table([p.load_table for p in compiled], 3)
        loads[:, 0] += np.repeat(bases, load_counts)
        load_firsts = np.concatenate(([0], np.cumsum(load_counts)))
        output_counts = np.array([len(p.read_names) for p in compiled])
        outputs = _flat_table([p.output_table for p in compiled], 4)
        outputs[:, 0] += np.repeat(bases, output_counts)
        output_firsts = np.concatenate(([0], np.cumsum(output_counts)))

        # The deepest domain any region reaches (a narrow extra destination
        # is blended over the instruction width) sizes the word.
        deepest = max(
            int(np.max(ends, initial=0))
            for ends in (
                table[:, _A_OFF] + table[:, _A_WIDTH],
                table[:, _B_OFF] + table[:, _B_WIDTH],
                table[:, _D_OFF] + np.maximum(table[:, _WIDTH], table[:, _D_WIDTH]),
                loads[:, 1] + loads[:, 2],
                outputs[:, 1] + outputs[:, 2],
            )
        )
        unsigned = self.word = _word_dtype(deepest)
        self.signed = np.dtype(f"i{unsigned.itemsize}")
        bits = 8 * unsigned.itemsize

        self.blocks: List[_Block] = []
        row_bytes = 0
        for index, (start, stop) in enumerate(zip(starts, stops)):
            load_span = (int(load_firsts[start]), int(load_firsts[stop]))
            output_span = (int(output_firsts[start]), int(output_firsts[stop]))
            words = loads[slice(*load_span), 0]
            # Loads into one word land in order: the r-th load of a word goes
            # to scatter round r (one round unless a column holds several).
            rounds = None
            # (Sorted rather than ``np.unique``, whose first call in a
            # process imports ``numpy.ma``.)
            ordered = np.sort(words)
            if (ordered[1:] == ordered[:-1]).any():
                seen: Dict[int, int] = {}
                occurrence = np.zeros(len(words), dtype=np.intp)
                for position, word in enumerate(words.tolist()):
                    occurrence[position] = seen.get(word, 0)
                    seen[word] = occurrence[position] + 1
                rounds = tuple(
                    np.flatnonzero(occurrence == r)
                    for r in range(int(occurrence.max()) + 1)
                )
            self.blocks.append(
                _Block(
                    start,
                    stop,
                    last_seed > 0 and start <= last_seed,
                    last_seed > 0 and stop <= last_seed,
                    (int(block_groups[index]), int(block_groups[index + 1])),
                    (int(firsts[start]), int(firsts[stop])),
                    load_span,
                    rounds,
                    output_span,
                )
            )
            # Per instance row: block state, the masked loads, group
            # temporaries (sources, carries, result, literals, minterms and
            # target words of the block's largest group) and the block's
            # readout, all words.
            largest = int(
                sizes[block_groups[index] : block_groups[index + 1]].max(initial=0)
            )
            row_bytes = max(
                row_bytes,
                unsigned.itemsize
                * (
                    (stop - start) * columns
                    + 28 * largest
                    + load_span[1] - load_span[0]
                    + output_span[1] - output_span[0]
                ),
            )
        #: Per-program defined-domain masks, kept only where the kernel
        #: composes the true AP state.
        self.defined = (
            [
                np.frombuffer(lowered.defined, dtype=np.uint64).astype(unsigned)
                for lowered in compiled
            ]
            if last_seed
            else None
        )
        if last_seed:
            row_bytes += unsigned.itemsize * columns  # the composed true state
        self.outputs = len(outputs)
        # Plus the chunk's rows of the wave's output array.
        self.row_bytes = row_bytes + unsigned.itemsize * len(outputs)

        shape = (-1, 1, 1)
        self.lut = table[:, _LUT].astype(np.uint8)
        # Sources: a group of records ``[first, stop)`` reads its B regions
        # at ``[2 * first, first + stop)`` and its A regions at ``[first +
        # stop, 2 * stop)``, so one gather fetches both (a copy's single
        # source sits in both).
        record = np.arange(len(table))
        positions = np.concatenate([span_of[:, 0] + record, span_of[:, 1] + record])
        sources = np.empty((2 * len(table), 3), dtype=np.int64)
        sources[positions] = np.concatenate(
            [table[:, (_B_COL, _B_OFF, _B_WIDTH)], table[:, (_A_COL, _A_OFF, _A_WIDTH)]]
        )
        self.src_idx = sources[:, 0].astype(np.int32)
        self.src_left = (bits - sources[:, 1] - sources[:, 2]).astype(
            np.uint8
        ).reshape(shape)
        self.src_right = (bits - sources[:, 2]).astype(np.uint8).reshape(shape)
        self.width = table[:, _WIDTH].astype(np.uint8)
        self.slot = table[:, _SLOT].astype(np.int32)
        self.t_idx = table[:, _D_COL].astype(np.int32)
        self.t_width = table[:, _D_WIDTH].astype(np.uint8)
        self.t_shift = table[:, _D_OFF].astype(np.uint8).reshape(shape)
        self.t_narrow = (
            np.where(table[:, _NARROW] != 0, np.iinfo(unsigned).max, 0)
            .astype(unsigned)
            .reshape(shape)
            if table[:, _NARROW].any()
            else None
        )

        self.l_idx = loads[:, 0].astype(np.int32)
        self.l_offset = loads[:, 1].astype(np.uint8).reshape(shape)
        self.l_width = loads[:, 2].astype(np.uint8)
        self.r_idx = outputs[:, 0].astype(np.int32)
        self.r_left = (bits - outputs[:, 1] - outputs[:, 2]).astype(
            np.uint8
        ).reshape(shape)
        self.r_right = (bits - outputs[:, 2]).astype(np.uint8).reshape(shape)
        self.r_sign = (
            np.where(outputs[:, 3] != 0, -1, 1).astype(np.int8).reshape(shape)
            if outputs[:, 3].any()
            else None
        )

    def count_dtype(self, rows: int) -> np.dtype:
        """Accumulator of the matched-bit counts on ``rows`` rows: ``uint16``
        is exact while ``rows x word bits`` stays below ``2**16``; larger
        tiles accumulate in ``int64``."""
        exact = rows * 8 * self.word.itemsize < 1 << 16
        return np.dtype(np.uint16 if exact else np.int64)

    def chunk(self, rows: int, total: int, plan: _ReplayPlan) -> int:
        """Instances per chunk under :data:`_WAVE_CHUNK_BYTES` (block state,
        temporaries and output rows at the word size, plus the chunk's int64
        fire records and replay temporaries - about 11 int64 words per
        alignment event at the replay's peak)."""
        instance_bytes = rows * self.row_bytes + 8 * (
            plan.slots * (_MAX_PASSES + 1) + 11 * len(plan.events)
        )
        return max(1, min(total, _WAVE_CHUNK_BYTES // instance_bytes))


def _sorted_events(events: np.ndarray) -> np.ndarray:
    """Events grouped by column (program order kept within a column), with
    a fifth field: the index of the first event of the event's column."""
    order = np.argsort(events[:, 0], kind="stable")
    events = events[order]
    starts = np.ones(len(events), dtype=bool)
    starts[1:] = events[1:, 0] != events[:-1, 0]
    first = np.maximum.accumulate(np.where(starts, np.arange(len(events)), 0))
    return np.column_stack([events, first])


def _steps(
    first: np.ndarray, last: np.ndarray, active: np.ndarray, column_start: np.ndarray
) -> np.ndarray:
    """Shift steps of column-grouped alignment runs, per (event, instance).

    Each active run costs ``|first - port| + (last - first)`` and leaves the
    port at ``last``, like :meth:`CAMArray.align_run`; the port before a run
    is the ``last`` of the column's previous active run, or domain 0 on a
    fresh AP.
    """
    events = len(first)
    latest = np.where(active, np.arange(events)[:, None], -1)
    np.maximum.accumulate(latest, axis=0, out=latest)
    port = np.zeros(latest.shape, dtype=np.int64)
    previous = latest[:-1]
    port[1:] = np.where(
        previous >= column_start[1:, None],
        np.take_along_axis(last, np.maximum(previous, 0), axis=0),
        0,
    )
    steps = np.abs(first - port)
    steps += last
    steps -= first
    steps *= active
    return steps


def _replay(
    plan: _ReplayPlan, fires: np.ndarray, counts: np.ndarray, rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-instance ``(write_phases, written_bits, lockstep_shift_steps)``
    from the ``(passes, slots, instances)`` fire words and the
    ``(slots, instances)`` matched-bit counts of one chunk."""
    copies = plan.copy_slots
    if copies.size:
        # A copy writes the 0 bits where some row holds a 0: NOT of the AND.
        fires[1, copies] = ~fires[1, copies]
    fires &= plan.slot_masks[:, None]
    write_phases = plan.write_phases + np.bitwise_count(fires).sum(
        axis=(0, 1), dtype=np.int64
    )
    written_bits = plan.written_per_row * rows + plan.slot_columns @ counts
    lockstep = np.full(fires.shape[2], plan.static_steps, dtype=np.int64)
    events = plan.events
    if len(events):
        instances = fires.shape[2]
        first = np.empty((len(events), instances), dtype=np.int64)
        first[:] = events[:, 1:2]
        last = np.empty_like(first)
        last[:] = events[:, 2:3]
        active = np.ones(first.shape, dtype=bool)
        dynamic = plan.dynamic
        if dynamic.size:
            fired = np.bitwise_or.reduce(fires[:, plan.dynamic_slots], axis=0)
            # Lowest set bit: popcount below it; highest: smear it downwards.
            low = np.bitwise_count((fired & -fired) - 1).astype(np.int64)
            smeared = fired.copy()
            for shift in (1, 2, 4, 8, 16, 32):
                smeared |= smeared >> shift
            high = np.bitwise_count(smeared).astype(np.int64) - 1
            first[dynamic] += low
            last[dynamic] += high
            active[dynamic] = fired != 0
        lockstep += _steps(first, last, active, events[:, 4]).sum(axis=0)
    return write_phases, written_bits, lockstep


#: One instance's wave outcome: counters, checksum, and its outputs stacked as
#: one ``(total outputs, rows)`` int64 matrix in (program order, names sorted
#: within each program) order - each compiled program's ``read_names``.
WaveResult = Tuple[CAMStats, int, np.ndarray]


class WaveBatch:
    """One wave's results as arrays over its instances.

    ``outputs`` holds every instance's outputs as one ``(outputs,
    instances, rows)`` array in the tile's signed word dtype, outputs in
    (program order, names sorted within each program) order - each
    compiled program's ``read_names``.  The data-dependent counters
    (``write_phases``, ``written_bits``, ``lockstep_shift_steps``) are int64
    arrays over instances; the others are the same on every instance and
    stored once in ``static`` (``track_shifts`` is ``lockstep x rows``).

    ``len()`` is the instance count.  Indexing yields one instance's
    :data:`WaveResult`, built on demand: the consumers of whole waves read
    the arrays through :meth:`counters` and :meth:`checksum`.
    """

    __slots__ = (
        "outputs", "rows", "static", "write_phases", "written_bits",
        "lockstep_shift_steps",
    )

    def __init__(self, outputs: np.ndarray, rows: int, static: Dict[str, int]) -> None:
        self.outputs = outputs
        self.rows = rows
        #: ``search_phases``, ``searched_bits``, ``read_bits``, ``loaded_bits``.
        self.static = static
        instances = outputs.shape[1]
        self.write_phases = np.zeros(instances, dtype=np.int64)
        self.written_bits = np.zeros(instances, dtype=np.int64)
        self.lockstep_shift_steps = np.zeros(instances, dtype=np.int64)

    def __len__(self) -> int:
        return self.outputs.shape[1]

    def __getitem__(self, instance: int) -> WaveResult:
        stacked = self.outputs[:, instance].astype(np.int64)
        steps = int(self.lockstep_shift_steps[instance])
        stats = CAMStats(
            write_phases=int(self.write_phases[instance]),
            written_bits=int(self.written_bits[instance]),
            lockstep_shift_steps=steps,
            track_shifts=steps * self.rows,
            **self.static,
        )
        return stats, sum(stacked.sum(axis=1).tolist()), stacked

    def __iter__(self) -> Iterator[WaveResult]:
        return (self[instance] for instance in range(len(self)))

    def counters(self) -> np.ndarray:
        """``(instances, 8)`` int64 counters, columns in :data:`COUNTER_FIELDS`
        order."""
        values = dict(
            self.static,
            write_phases=self.write_phases,
            written_bits=self.written_bits,
            lockstep_shift_steps=self.lockstep_shift_steps,
            track_shifts=self.lockstep_shift_steps * self.rows,
        )
        matrix = np.empty((len(self), len(COUNTER_FIELDS)), dtype=np.int64)
        for column, name in enumerate(COUNTER_FIELDS):
            matrix[:, column] = values[name]
        return matrix

    @property
    def total_is_checksum(self) -> bool:
        """Whether the int64 total of all outputs cannot wrap: ``(word bits -
        1) + ceil(log2(rows x outputs x instances)) < 63``.  Then any int64
        fold of the outputs sums to :meth:`checksum`."""
        values = self.outputs.size
        bits = 8 * self.outputs.dtype.itemsize
        return bits - 1 + (values - 1).bit_length() < 63 if values else True

    def checksum(self) -> int:
        """The sum of every instance's checksum: the Python-int fold of each
        output's int64 row sum."""
        if self.total_is_checksum:
            return int(self.outputs.sum(dtype=np.int64))
        return sum(self.outputs.sum(axis=2, dtype=np.int64).ravel().tolist())


#: Every input form accepted by :func:`execute_program_wave`.
WaveInputs = Union[
    Sequence[Sequence[Mapping[str, Sequence[int]]]], StagedWaveInputs, WaveGather
]


def _decline(reason: str, **detail: object) -> None:
    """Record one wave decline (debug log + trace instant) and return ``None``.

    The batched path falling back to per-instance dispatch is correct but
    silent by design; routing every decline through here makes the fallback
    diagnosable without changing any result.
    """
    logger.debug("wave declined: %s %s", reason, detail or "")
    telemetry.instant("backend.wave_decline", category="device", reason=reason, **detail)


def _fits_signed(values: np.ndarray, width: int) -> bool:
    """Whether every value fits a signed ``width``-bit word."""
    return int(np.minimum.reduce(values, axis=None, initial=0)) >= min_signed_value(
        width
    ) and int(np.maximum.reduce(values, axis=None, initial=0)) <= max_signed_value(
        width
    )


def _stage_dicts(
    compiled: Sequence[_CompiledWaveProgram],
    inputs_per_instance: Sequence[Sequence[Mapping[str, Sequence[int]]]],
    rows: int,
) -> Optional[StagedWaveInputs]:
    """The staged form of one-dict-per-(instance, program) inputs: one
    ``(instances, rows)`` batch per operand, or ``None`` (declined) when an
    instance's program count, operand names or vector shapes and dtypes do
    not fit.  Value ranges are checked on the staged batches."""
    if any(len(instance) != len(compiled) for instance in inputs_per_instance):
        _decline("malformed-inputs", programs=len(compiled))
        return None
    for program_index, lowered in enumerate(compiled):
        for instance_inputs in inputs_per_instance:
            provided = instance_inputs[program_index]
            if any(name not in provided for name in lowered.load_names):
                _decline("missing-input", program=program_index)
                return None
    values: List[Dict[str, np.ndarray]] = []
    instances = len(inputs_per_instance)
    for program_index, lowered in enumerate(compiled):
        batches: Dict[str, np.ndarray] = {}
        for name, width in lowered.load_widths().items():
            stacked = np.empty((instances, rows), dtype=np.int64)
            for index, instance_inputs in enumerate(inputs_per_instance):
                vector = np.asarray(instance_inputs[program_index][name])
                if vector.shape != (rows,) or vector.dtype.kind not in "iu":
                    _decline("invalid-input", name=name, program=program_index)
                    return None
                if vector.dtype == np.uint64 and not _fits_signed(vector, width):
                    _decline("invalid-input", name=name, program=program_index)
                    return None
                stacked[index] = vector
            batches[name] = stacked
        values.append(batches)
    return StagedWaveInputs(instances, rows, values)


def _decline_inputs(
    compiled: Sequence[_CompiledWaveProgram], staged: StagedWaveInputs, rows: int
) -> None:
    """Decline a wave whose staged operands failed the vectorized checks,
    naming the first bad operand in program order.

    Walks the batches one by one - missing name, wrong shape or dtype,
    out-of-range value - so the decline carries the same reason and operand
    whichever block tripped first.
    """
    entries = staged.values
    total = staged.instances
    for program_index, lowered in enumerate(compiled):
        provided = entries[program_index]
        for name, width in lowered.load_widths().items():
            batch = provided.get(name)
            if batch is None:
                return _decline("missing-input", program=program_index)
            if (
                batch.shape != (total, rows)
                or batch.dtype.kind not in "iu"
                or not _fits_signed(batch, width)
            ):
                return _decline("invalid-input", name=name, program=program_index)
    return _decline("invalid-input")


def _block_operands(
    schedule: "_Schedule",
    compiled: Sequence[_CompiledWaveProgram],
    staged: StagedWaveInputs,
    rows: int,
) -> Optional[List[np.ndarray]]:
    """Every block's operand batches stacked in load order, one ``(loads,
    instances, rows)`` int64 array per block, shape- and dtype-checked in
    one pass per block; ``None`` (declined) if any is missing or bad.

    A ``uint64`` batch is range-checked here as well: its values do not
    survive the cast to int64 unchecked.
    """
    entries = staged.values
    expected = (staged.instances, rows)
    blocks: List[np.ndarray] = []
    for block in schedule.blocks:
        try:
            operands = [
                entries[j][name]
                for j in range(block.start, block.stop)
                for name in compiled[j].load_names
            ]
        except KeyError:
            operands = None
        if operands is not None:
            dtypes = {batch.dtype for batch in operands}
            if any(batch.shape != expected for batch in operands) or any(
                dtype.kind not in "iu" for dtype in dtypes
            ):
                operands = None
            elif np.dtype(np.uint64) in dtypes:
                widths = schedule.l_width[slice(*block.loads)].tolist()
                if not all(
                    _fits_signed(batch, width)
                    for batch, width in zip(operands, widths)
                    if batch.dtype == np.uint64
                ):
                    operands = None
        if operands is None:
            return _decline_inputs(compiled, staged, rows)
        blocks.append(
            np.stack(operands, dtype=np.int64)
            if operands
            else np.empty((0,) + expected, dtype=np.int64)
        )
    return blocks


def _word_loads(
    schedule: "_Schedule",
    compiled: Sequence[_CompiledWaveProgram],
    staged: StagedWaveInputs,
    rows: int,
) -> Optional[List[np.ndarray]]:
    """The kernel form of staged operand batches: each block's stacked
    loads, range-checked against their signed widths in one vectorized test
    and cast once to the schedule's word; ``None`` (declined) when a batch
    is missing, malformed or out of range."""
    blocks = _block_operands(schedule, compiled, staged, rows)
    if blocks is None:
        return None
    loads: List[np.ndarray] = []
    for block, values in zip(schedule.blocks, blocks):
        widths = schedule.l_width[slice(*block.loads)]
        if len(values) and (
            (values.min(axis=(1, 2)) < _SIGNED_MIN[widths]).any()
            or (values.max(axis=(1, 2)) > _SIGNED_MAX[widths]).any()
        ):
            return _decline_inputs(compiled, staged, rows)
        # Range-checked values wrap into the word as their two's complement.
        loads.append(values.astype(schedule.word))
    return loads


def _gathered_loads(
    schedule: "_Schedule", gather: WaveGather
) -> Optional[List[np.ndarray]]:
    """The kernel form of a :class:`WaveGather`: one ``take`` per block,
    copied transposed to ``(loads, images x tiles, rows)``; ``None``
    (declined) when the codes are not in the schedule's word or an index
    does not fit its block."""
    codes, tiles, rows = gather.codes, gather.tiles, gather.rows
    if (
        codes.ndim != 2
        or codes.dtype != schedule.word
        or len(gather.index) != len(schedule.blocks)
    ):
        _decline("invalid-input", form="gather")
        return None
    loads: List[np.ndarray] = []
    for block, index in zip(schedule.blocks, gather.index):
        count = block.loads[1] - block.loads[0]
        if index.shape != (count, tiles, rows):
            _decline("invalid-input", form="gather")
            return None
        taken = np.take(codes, index, axis=0)
        loads.append(
            np.ascontiguousarray(taken.transpose(0, 3, 1, 2)).reshape(count, -1, rows)
        )
    return loads


def execute_program_wave(
    programs: Sequence[APProgram],
    inputs_per_instance: WaveInputs,
    rows: int,
    columns: int,
    technology: Optional[RTMTechnology] = None,
    carry_column: int = 0,
) -> Union[WaveBatch, List[WaveResult], None]:
    """Execute one tile's program sequence for many instances at once.

    Every instance models a fresh ``rows x columns`` AP running ``programs``
    back to back on its own input set (the exact contract of a pooled or
    fresh-worker AP executing one tile).  ``inputs_per_instance`` is the
    one-dict-per-(instance, program) form, a host-staged
    :class:`StagedWaveInputs` batch or a deploy-planned
    :class:`WaveGather`.  Returns one :class:`WaveBatch` of every
    instance's outputs and counters - byte-identical to running each
    instance alone on any registered backend - ``[]`` for an empty wave, or
    ``None`` when the wave cannot take the batched path (unsupported
    instruction shapes, geometry, or malformed inputs), in which case the
    caller must fall back to per-instance dispatch.

    A sequence :func:`wave_staging_plan` has seen is found with one lookup:
    its lowering, schedule and replay plan were built at deploy.  The wave
    runs in the fewest chunks the byte budget allows, of equal size (the
    last one smaller by less than the chunk count).
    """
    technology = technology or DEFAULT_RTM_TECHNOLOGY
    domains = technology.domains_per_nanowire
    inputs = inputs_per_instance
    total = len(inputs)
    if total == 0:
        return []
    if rows < 1 or columns < 1 or domains > _WORD_BITS:
        _decline("geometry", rows=rows, columns=columns, domains=domains)
        return None
    gathered = isinstance(inputs, WaveGather)
    if (gathered or isinstance(inputs, StagedWaveInputs)) and inputs.rows != rows:
        _decline("geometry", rows=rows, staged_rows=inputs.rows)
        return None

    sequence = None
    if programs:
        sequence = _sequence(programs, rows, columns, domains, carry_column, True)
        if sequence is None:
            return None
    compiled = sequence.compiled if sequence is not None else []
    if isinstance(inputs, StagedWaveInputs):
        if len(inputs.values) != len(compiled):
            _decline("malformed-inputs", programs=len(compiled))
            return None
    elif not gathered:
        with telemetry.span("host.stage", category="host", mode="gather"):
            inputs = _stage_dicts(compiled, inputs, rows)
        if inputs is None:
            return None
    if sequence is None:
        static = dict(search_phases=0, searched_bits=0, read_bits=0, loaded_bits=0)
        return WaveBatch(np.empty((0, total, rows), dtype=np.int64), rows, static)

    schedule, plan = sequence.schedule, sequence.plan
    with telemetry.span("host.stage", category="host", mode="gather"):
        loads = (
            _gathered_loads(schedule, inputs)
            if gathered
            else _word_loads(schedule, compiled, inputs, rows)
        )
    if loads is None:
        return None
    chunks = -(-total // schedule.chunk(rows, total, plan))
    chunk = -(-total // chunks)
    batch = WaveBatch(
        np.empty((schedule.outputs, total, rows), dtype=schedule.signed),
        rows,
        {
            "search_phases": plan.search_phases,
            "searched_bits": plan.searched_per_row * rows,
            "read_bits": plan.read_per_row * rows,
            "loaded_bits": plan.loaded_per_row * rows,
        },
    )
    with telemetry.span(
        "backend.wave",
        category="device",
        programs=len(programs),
        instances=total,
        rows=rows,
        columns=columns,
    ):
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            (
                batch.write_phases[start:stop],
                batch.written_bits[start:stop],
                batch.lockstep_shift_steps[start:stop],
            ) = _execute_wave_chunk(
                schedule, plan, loads, start, stop, total, rows, batch.outputs
            )
    return batch


def _lanes(words: np.ndarray) -> Optional[np.ndarray]:
    """``words``' rows (its last axis) as one or two ``uint64`` lanes, or
    ``None`` where a plain reduction is faster.

    NumPy reduces a short last axis element by element, so a row reduction
    over 8 or 16 bytes - 16 ``uint8`` rows, 4 or 8 ``uint16`` ones - costs
    tens of times an elementwise pass; on lanes it becomes one or two
    vectorized passes.  Below :data:`_LANE_MIN_VECTORS` row vectors the fixed
    cost of the fold dominates, and rows of 32 bytes or more reduce fast
    enough as they are.
    """
    if (
        words.shape[-1] * words.itemsize in (8, 16)
        and words.size >= _LANE_MIN_VECTORS * words.shape[-1]
        and words.strides[-1] == words.itemsize
    ):
        return words.view(np.uint64)
    return None


def _reduce_rows(op: np.ufunc, words: np.ndarray) -> np.ndarray:
    """``op.reduce(words, axis=-1)`` for ``op`` ``np.bitwise_or`` or
    ``np.bitwise_and`` on unsigned words.

    On lanes: ``op`` of the two lanes, then halving folds - ``x op (x >>
    32)``, ``>> 16``, ``>> 8`` down to the word's bits - leave every row's
    word combined in the low bits, which the cast to the word keeps.
    """
    lanes = _lanes(words)
    if lanes is None:
        return op.reduce(words, axis=-1)
    folded = lanes[..., 0]
    if lanes.shape[-1] == 2:
        folded = op(folded, lanes[..., 1])
    bits = 8 * words.itemsize
    for shift in (32, 16, 8):
        if shift < bits:
            break
        folded = op(folded, folded >> shift)
    return folded.astype(words.dtype)


def _count_rows(words: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The set bits of every row vector: ``np.add.reduce(np.bitwise_count(
    words), axis=-1, dtype=dtype)``, with the popcount of each lane instead
    where :func:`_lanes` chooses them (exact in any dtype: a row vector
    holds at most 128 bits)."""
    lanes = _lanes(words)
    if lanes is None:
        return np.add.reduce(np.bitwise_count(words), axis=-1, dtype=dtype)
    counts = np.bitwise_count(lanes)
    if lanes.shape[-1] == 2:
        return counts[..., 0] + counts[..., 1]
    return counts[..., 0]


def _load_block(
    state: np.ndarray,
    schedule: "_Schedule",
    block: _Block,
    loads: np.ndarray,
    start: int,
    stop: int,
    total: int,
) -> None:
    """Place one block's loads - a ``(loads, instances, rows)`` array in the
    schedule's word dtype - for instances ``[start, stop)``: one mask, one
    power-of-two scale (the shift to the load's offset) and one scatter per
    load round."""
    if not len(loads):
        return
    if stop - start != total:
        loads = loads[:, start:stop]
    first, last = block.loads
    unsigned = schedule.word
    low = _LOW[schedule.l_width[first:last]].astype(unsigned).reshape(-1, 1, 1)
    scales = _POW2[schedule.l_offset[first:last]].astype(unsigned)
    bits = loads & low
    bits *= scales
    keep = ~(low * scales)
    words = schedule.l_idx[first:last].astype(np.intp)
    for chosen in block.rounds or (slice(None),):
        targets = words[chosen]
        merged = state[targets]
        merged &= keep[chosen]
        merged |= bits[chosen]
        state[targets] = merged


def _run_groups(
    state: np.ndarray,
    schedule: "_Schedule",
    block: _Block,
    fires: np.ndarray,
    counts: np.ndarray,
    count_dtype: np.dtype,
) -> None:
    """Execute one block's groups: each evaluates its records - writes to
    distinct words that read none of the group's targets - on every
    instance of the chunk.

    ``fires[:, slot]`` receives one ``(passes, instances)`` fire record per
    arithmetic record (the OR over rows of each pass word) and, per copy,
    the OR and AND over rows of the copied word; ``counts[slot]`` the
    matched bits of an arithmetic record per instance, summed over rows in
    ``count_dtype`` (:meth:`_Schedule.count_dtype`).  Everything else a
    counter needs is static (see :func:`_replay`).
    """
    s = schedule
    unsigned, signed = s.word, s.signed
    first, last = block.groups
    records = slice(*block.records)
    sources = slice(2 * block.records[0], 2 * block.records[1])
    # Widen the block's compact fields once (indices to intp, left shifts to
    # power-of-two scales and right shifts and masks to the word dtypes, so
    # no group operation casts) and slice every per-record field to the
    # block, so group spans index them directly.
    src_idx = s.src_idx[sources].astype(np.intp)
    src_scale = _POW2[s.src_left[sources]].astype(unsigned)
    src_right = s.src_right[sources].astype(signed)
    t_idx = s.t_idx[records].astype(np.intp)
    slot = s.slot[records].astype(np.intp)
    scales = _POW2[s.t_shift[records]].astype(unsigned)
    masks = _LOW[s.width[records]].astype(signed).reshape(-1, 1, 1)
    # Each destination word keeps every domain outside its cleared region.
    keeps = ~(_LOW[s.t_width[records]].astype(unsigned).reshape(-1, 1, 1) * scales)
    narrows = s.t_narrow[records] if s.t_narrow is not None else None
    # Per record: its LUT's pass flips, its width mask on the LUT's real
    # passes (empty on padded ones) and its add/sub sign.
    lut = s.lut[records]
    flip_c, flip_b, flip_a = (
        _FLIPS[:, :, lut].astype(signed).reshape(3, _MAX_PASSES, -1, 1, 1)
    )
    pass_masks = (
        np.where(_PASSES[:, lut], masks.reshape(-1), 0)
        .astype(signed)
        .reshape(_MAX_PASSES, -1, 1, 1)
    )
    signs = _SIGNS[lut].astype(signed).reshape(-1, 1, 1)
    for kind, lo, hi, narrow in s.groups[first:last].tolist():
        targets = t_idx[lo:hi]
        if kind == _CLEAR:
            word = state[targets]
            word &= keeps[lo:hi]
            state[targets] = word
            continue
        slots = slot[lo:hi]
        mask = masks[lo:hi]
        if kind == _COPY:
            span = slice(2 * lo, lo + hi)
            value = state[src_idx[span]]
            value *= src_scale[span]
            value = value.view(signed)
            value >>= src_right[span]
            # Fire words are stored zero-extended.
            fires[0, slots] = _reduce_rows(np.bitwise_or, value.view(unsigned))
            fires[1, slots] = _reduce_rows(np.bitwise_and, value.view(unsigned))
            value &= mask
            bits = value.view(unsigned)
        else:
            span = slice(2 * lo, 2 * hi)
            words = state[src_idx[span]]
            words *= src_scale[span]
            values = words.view(signed)
            values >>= src_right[span]
            b = values[: hi - lo]
            a = values[hi - lo :]
            result = a * signs[lo:hi]
            result += b
            carries = a ^ b
            carries ^= result
            # One minterm word per pass: the bits whose (carry, b, a) state
            # that pass matches, masked to the instruction width.
            minterms = carries ^ flip_c[:, lo:hi]
            minterms &= b ^ flip_b[:, lo:hi]
            minterms &= a ^ flip_a[:, lo:hi]
            minterms &= pass_masks[:, lo:hi]
            minterms = minterms.view(unsigned)
            fires[:, slots] = _reduce_rows(np.bitwise_or, minterms)
            # Each state fires at most one pass, so the passes' minterms are
            # disjoint: their OR holds every matched bit once.
            fired = np.bitwise_or.reduce(minterms, axis=0)
            counts[slots] = _count_rows(fired, count_dtype)
            result &= mask
            bits = result.view(unsigned)
        word = state[targets]
        if narrow:
            # Above a narrow extra destination's own width, rows whose state
            # fires no pass keep their bits: clear only the fired ones.
            fired *= scales[lo:hi]
            fired &= narrows[lo:hi]
            word &= ~fired
        word &= keeps[lo:hi]
        bits *= scales[lo:hi]
        word |= bits
        state[targets] = word


def _read_block(
    state: np.ndarray, schedule: "_Schedule", block: _Block, outputs: np.ndarray
) -> None:
    """One gather reads every output of the block into its rows of
    ``outputs``, a chunk's ``(outputs, instances, rows)`` view in the
    schedule's signed word dtype: the gathered words' power-of-two scales
    land in ``outputs`` and shift back from there."""
    first, last = block.outputs
    if first == last:
        return
    values = outputs[first:last]
    np.multiply(
        state[schedule.r_idx[first:last]],
        _POW2[schedule.r_left[first:last]].astype(schedule.word),
        out=values.view(schedule.word),
    )
    values >>= schedule.r_right[first:last].astype(schedule.signed)
    if schedule.r_sign is not None:
        values *= schedule.r_sign[first:last].astype(schedule.signed)


def _compose(
    state: np.ndarray, defined: Sequence[np.ndarray], columns: int
) -> np.ndarray:
    """The true AP state after a block: its first slice ran on the true
    state, and every later program is self-contained and clean, so it sets
    exactly its ``defined`` domains."""
    truth = state[:columns].copy()
    for index, program_defined in enumerate(defined[1:], start=1):
        mask = program_defined.reshape(-1, 1, 1)
        truth &= ~mask
        truth |= state[index * columns : (index + 1) * columns] & mask
    return truth


def _execute_wave_chunk(
    schedule: "_Schedule",
    plan: _ReplayPlan,
    loads: List[np.ndarray],
    start: int,
    stop: int,
    total: int,
    rows: int,
    outputs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run instances ``[start, stop)`` through every block of the schedule,
    reading their outputs into ``outputs[:, start:stop]``; returns their
    ``(write_phases, written_bits, lockstep_shift_steps)``.  ``loads`` holds
    each block's loads in the kernel form (see :func:`_load_block`)."""
    instances = stop - start
    columns = schedule.columns
    fires = np.zeros((_MAX_PASSES, plan.slots, instances), dtype=np.int64)
    counts = np.zeros((plan.slots, instances), dtype=np.int64)
    chunk_outputs = outputs[:, start:stop]
    truth: Optional[np.ndarray] = None
    count_dtype = schedule.count_dtype(rows)
    for block, block_loads in zip(schedule.blocks, loads):
        state = np.zeros(
            ((block.stop - block.start) * columns, instances, rows),
            dtype=schedule.word,
        )
        if block.seeded and truth is not None:
            state[:columns] = truth
        # Loading operands into the wave state is host work (the payload
        # fan-out), not CAM arithmetic: charge it to the ``host.stage``
        # ledger so the host/device split prices it honestly.
        with telemetry.span("host.stage", category="host", mode="wave-load"):
            _load_block(state, schedule, block, block_loads, start, stop, total)
        _run_groups(state, schedule, block, fires, counts, count_dtype)
        _read_block(state, schedule, block, chunk_outputs)
        if block.tracks:
            truth = _compose(
                state, schedule.defined[block.start : block.stop], columns
            )
    return _replay(plan, fires, counts, rows)
