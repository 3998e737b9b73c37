"""Mega-kernel batched backend: one NumPy dispatch per instruction across a
whole layer's (images x tiles) wave, on packed nanowire words.

The :class:`~repro.ap.backends.vectorized.VectorizedBackend` removed the
per-*bit* interpretation cost but still executes one ``(image, tile)`` AP at a
time, so a layer of ``N`` images times ``T`` row tiles pays ``N x T`` Python
instruction loops.  Those instances are perfectly homogeneous: every row tile
of one channel group shares the *same* compiled slice programs, only the
activation rows differ.  This module exploits that: it stacks the instances
and evaluates the shared instruction stream once, so each AP instruction
becomes a single batch of NumPy kernel calls for the whole wave - the
mega-kernel.

The wave state mirrors the hardware's word-parallel, bit-serial layout: each
column of each row is one RTM nanowire of up to 64 domains, held as one
``uint64`` word (bit ``d`` is domain ``d``) in a ``(columns, instances,
rows)`` tensor.  A technology with more than 64 domains per nanowire
declines the wave.

Equivalence contract (same as every backend, see :mod:`repro.ap.backends.base`):

* **Results.**  A region read is a shift and an arithmetic shift back: the
  sign extension replays the region's MSB exactly like
  ``ColumnRegion.bit_position`` does for the controller.  Arithmetic is
  ``b + a`` / ``b - a`` on the sign-extended words, the carry (borrow) into
  every bit position falls out of ``carries = a ^ b ^ result``, and writes
  are masked merges into the destination words.  The carry column is never
  read inside a wave (lowering declines programs that would read it), so it
  is not stored.
* **CAMStats.**  In each of the four Table-I LUTs every pass matches exactly
  one initial ``(carry, b, a)`` state and each state fires at most one pass
  (checked when a program is lowered; a LUT without that property declines).
  So one minterm word per pass, ``(carry ^ kc) & (b ^ kb) & (a ^ ka)``, marks
  the bits whose rows that pass writes.  Per instruction the hot loop records
  only the OR over rows of each pass word (the *fire words*) and the number of
  matched bits (``np.bitwise_count``).  After each chunk, one replay derives
  ``write_phases`` and ``written_bits`` from those records, and replays the
  alignment events of the whole program sequence for ``lockstep_shift_steps``
  (``track_shifts`` is always ``lockstep x rows``).  Source, carry, copy and
  clear runs are data-independent and precomputed per program; an
  out-of-place destination run spans the first to the last set bit of its
  instruction's fire words, and is skipped where nothing fired.  Every
  instance's counters come out byte-identical to a standalone run on the
  reference interpreter.

Operand input takes two forms: one ``{name: row vector}`` dict per
(instance, program), gathered and validated per instance, or
:class:`StagedWaveInputs`, where the host stages each operand as one
``(instances, rows)`` integer batch (views of one lowered tensor per layer).
Both forms produce byte-identical results and counters.

The wave entry point :func:`execute_program_wave` is conservative: any
program shape the vectorized backend would route to its interpreter fallback
(operands on the carry column, aliasing destinations, >60-bit words), any
geometry the word layout cannot hold, or any malformed input batch returns
``None`` so the caller can fall back to per-instance dispatch - where the
ordinary backends raise the proper errors.  Every such decline goes through
:func:`_decline` (a debug log line plus a ``backend.wave_decline`` trace
instant).  :func:`wave_staging_plan` lets the host pre-flight (and
pre-lower) a tile's programs at deploy time, so serving requests never pay
the lowering cost.

:class:`BatchedBackend` itself subclasses the vectorized backend, so
``backend="batched"`` behaves identically to ``"vectorized"`` for ordinary
per-instruction execution (CLI, tests, ``REPRO_AP_BACKEND``); the class
additionally advertises ``supports_program_wave``, which tells the
inference engine (:mod:`repro.inference.engine`) to hand it whole layers of
staged operands.
"""

from __future__ import annotations

import functools
from array import array
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.ap.backends.vectorized import (
    _MAX_VECTOR_WIDTH,
    VectorizedBackend,
    lut_truth_matrix,
)
from repro.ap.isa import APOpcode, APProgram, ColumnRegion
from repro.cam.stats import CAMStats
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY, RTMTechnology
from repro.telemetry.logs import get_logger
from repro.utils.bitops import max_signed_value, min_signed_value

logger = get_logger(__name__)

#: Bits of one nanowire word; technologies with more domains decline.
_WORD_BITS = 64

#: Soft cap on one wave chunk's words and temporaries; instances beyond it
#: are processed in equivalence-preserving chunks (instances are independent).
_MAX_WAVE_STATE_BYTES = 256 * 1024 * 1024

#: Most passes of any Table-I LUT: the width of one instruction's fire record.
_MAX_PASSES = 5

#: Static per-opcode facts (enum property calls are too slow for the lowering
#: hot loop: a full-width resnet18 plan lowers ~500k instructions).
_OPCODE_META: Dict[APOpcode, Tuple[bool, bool, Optional[str]]] = {
    opcode: (opcode.is_arithmetic, opcode.is_inplace, opcode.lut_kind)
    for opcode in APOpcode
}


class BatchedBackend(VectorizedBackend):
    """Vectorized per-instruction semantics plus whole-layer wave execution."""

    name = "batched"

    #: The inference engine checks this flag before routing a layer's payload
    #: wave to :func:`execute_program_wave` instead of per-tile dispatch.
    supports_program_wave = True


# ----------------------------------------------------------------------
# Per-LUT pass metadata (one instance per LUT kind, shared by every op)
# ----------------------------------------------------------------------
class _LutWords:
    """The minterm form of one Table-I LUT.

    ``flip_c/flip_b/flip_a`` are ``(passes, 1, 1)`` int64 masks: ``-1``
    where the pass searches a 0 bit (the literal is complemented), ``0``
    where it searches a 1 bit.  ``x ^ flip`` is then the literal, and the
    AND of the three literals is the pass's minterm word.
    """

    __slots__ = ("add", "passes", "flip_c", "flip_b", "flip_a")

    def __init__(self, add: bool, states: np.ndarray) -> None:
        self.add = add
        self.passes = len(states)
        shape = (self.passes, 1, 1)
        self.flip_c = (((states >> 2) & 1) - 1).reshape(shape)
        self.flip_b = (((states >> 1) & 1) - 1).reshape(shape)
        self.flip_a = ((states & 1) - 1).reshape(shape)


_LUT_WORDS: Dict[Tuple[str, bool], Optional[_LutWords]] = {}


def _lut_words(kind: str, inplace: bool) -> Optional[_LutWords]:
    """The minterm form of a LUT, or ``None`` when it has no such form.

    The form exists when every pass matches exactly one initial ``(carry, b,
    a)`` state and each state fires at most one pass (the truth tensor is a
    partial permutation); then a pass fires exactly on its state's bits.
    """
    key = (kind, inplace)
    if key not in _LUT_WORDS:
        truth = lut_truth_matrix(kind, inplace)
        if (truth.sum(axis=0) == 1).all() and (truth.sum(axis=1) <= 1).all():
            words: Optional[_LutWords] = _LutWords(
                kind == "add", truth.argmax(axis=0).astype(np.int64)
            )
        else:
            words = None
        _LUT_WORDS[key] = words
    return _LUT_WORDS[key]


# ----------------------------------------------------------------------
# Wave compilation: APProgram -> flat descriptors the mega-kernel can run
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _mask(width: int) -> np.int64:
    """The low ``width`` bits set."""
    return np.int64((1 << width) - 1)


@functools.lru_cache(maxsize=None)
def _keep(offset: int, width: int) -> np.uint64:
    """Word mask keeping every domain outside ``[offset, offset + width)``."""
    return np.uint64(~(((1 << width) - 1) << offset) & (2**_WORD_BITS - 1))


class _Read:
    """Sign-extended read of one region: ``(word << left) >> right`` (signed)."""

    __slots__ = ("column", "left", "right")

    def __init__(self, column: int, offset: int, width: int) -> None:
        self.column = column
        self.left = np.uint64(_WORD_BITS - offset - width)
        self.right = np.int64(_WORD_BITS - width)


class _Target:
    """Masked merge of ``width`` result bits into one destination word.

    ``keep`` clears the destination's own domains first.  A ``narrow`` extra
    destination (region narrower than the instruction) is only pre-zeroed
    over its own width: above it, rows whose state fires no pass keep their
    stale bits, so the fire word is cleared out of the word as well.
    """

    __slots__ = ("column", "keep", "shift", "narrow")

    def __init__(self, column: int, offset: int, cleared: int, narrow: bool) -> None:
        self.column = column
        self.keep = _keep(offset, cleared)
        self.shift = np.uint64(offset)
        self.narrow = narrow


# Descriptors are immutable, so ops of every program share one per region.
_read_spec = functools.lru_cache(maxsize=None)(_Read)
_target = functools.lru_cache(maxsize=None)(_Target)


@functools.lru_cache(maxsize=None)
def _targets(*targets: _Target) -> Tuple[_Target, ...]:
    """One shared tuple per destination set."""
    return targets


def _region_read(region: ColumnRegion) -> _Read:
    return _read_spec(region.column, region.domain_offset, region.width)


class _ArithOp:
    __slots__ = ("lut", "a", "b", "mask", "targets", "narrow", "slot")

    def __init__(self, lut, a, b, mask, targets, narrow, slot) -> None:
        self.lut = lut
        self.a = a
        self.b = b
        self.mask = mask
        self.targets = targets
        self.narrow = narrow
        self.slot = slot


class _CopyOp:
    __slots__ = ("src", "mask", "targets", "slot")

    def __init__(self, src, mask, targets, slot) -> None:
        self.src = src
        self.mask = mask
        self.targets = targets
        self.slot = slot


class _ClearOp:
    __slots__ = ("targets",)

    def __init__(self, targets) -> None:
        self.targets = targets


class _ReadGroup:
    """Outputs of one program that share ``(offset, width)``: one gather."""

    __slots__ = ("read", "columns", "slots", "negated")

    def __init__(
        self,
        offset: int,
        width: int,
        columns: Tuple[int, ...],
        slots: Tuple[int, ...],
        negated: Tuple[bool, ...],
    ) -> None:
        self.read = _read_spec(columns[0], offset, width)
        self.columns = np.array(columns, dtype=np.intp)
        self.slots = (
            slice(slots[0], slots[-1] + 1)
            if slots == tuple(range(slots[0], slots[-1] + 1))
            else np.array(slots, dtype=np.intp)
        )
        self.negated = np.flatnonzero(negated) if any(negated) else None


_read_group = functools.lru_cache(maxsize=None)(_ReadGroup)


class _CompiledWaveProgram:
    """One program lowered to wave descriptors (valid for a geometry).

    Besides the op list it holds the program's data-independent accounting
    from :class:`_Lowering`: the alignment events, the per-slot width masks
    and written-column counts, and the static counter totals.  ``read_names``
    fixes the output slot order (names sorted within the program) and
    ``read_groups`` batches the readout by ``(offset, width)``.
    ``replay_plans`` memoises the :class:`_ReplayPlan` of every program
    sequence this program starts.
    """

    __slots__ = (
        "loads",
        "ops",
        "read_names",
        "read_groups",
        "slots",
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
        "replay_plans",
    )

    def __init__(self, program: APProgram, lowering: "_Lowering") -> None:
        loads = []
        self.loaded_per_row = 0
        for name, region in program.input_columns.items():
            width = region.width
            target = _target(region.column, region.domain_offset, width, False)
            loads.append((name, target, width))
            self.loaded_per_row += width
        self.loads = tuple(loads)
        self.ops = tuple(lowering.ops)
        outputs = program.output_columns
        negated = program.output_negated
        self.read_names = tuple(sorted(outputs))
        self.read_per_row = 0
        # (offset, width) -> (columns, slots, negated) of the group's outputs.
        grouped: Dict[Tuple[int, int], Tuple[list, list, list]] = {}
        for slot, name in enumerate(self.read_names):
            region = outputs[name]
            width = region.width
            self.read_per_row += width
            members = grouped.get((region.domain_offset, width))
            if members is None:
                members = grouped[region.domain_offset, width] = ([], [], [])
            members[0].append(region.column)
            members[1].append(slot)
            members[2].append(bool(negated.get(name, False)))
        self.read_groups = tuple(
            _read_group(offset, width, tuple(columns), tuple(slots), tuple(signs))
            for (offset, width), (columns, slots, signs) in grouped.items()
        )
        self.slots = len(lowering.slot_widths)
        self.slot_widths = lowering.slot_widths
        self.slot_columns = lowering.slot_columns
        self.copy_slots = lowering.copy_slots
        self.events = lowering.events
        self.search_phases = lowering.search_phases
        self.searched_per_row = lowering.searched_per_row
        self.write_phases = lowering.write_phases
        self.written_per_row = lowering.written_per_row
        self.replay_plans: Dict[tuple, _ReplayPlan] = {}


def _region_fits(region: ColumnRegion, columns: int, domains: int) -> bool:
    return region.column < columns and region.end_domain <= domains


class _Lowering:
    """Accumulates one program's ops, fire slots, events and counters."""

    def __init__(self, carry: int, columns: int, domains: int) -> None:
        self.carry = carry
        self.columns = columns
        self.domains = domains
        self.ops: List[object] = []
        self.slot_widths = array("i")
        self.slot_columns: List[int] = []
        self.copy_slots: List[int] = []
        #: Flat ``column, first, last, slot`` quadruples in program order
        #: (packed ints, not one tuple per event: less memory, fewer objects
        #: for the garbage collector to traverse).
        self.events = array("i")
        self.search_phases = 0
        self.searched_per_row = 0
        self.write_phases = 0
        self.written_per_row = 0

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
        (any vectorized-fallback shape or geometry the per-instance backends
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
        lut = _lut_words(lut_kind, inplace)
        if run_a is None or run_b is None or lut is None:
            return False
        # Carry-clearing write: one tagged write phase over every row, with
        # the carry port aligned to domain 0 (searches then stay there).
        events = (carry, 0, 0, -1) + run_b + run_a
        slot = len(self.slot_widths)
        if inplace:
            if dest != src_b or extra_dests:
                return False
            targets = _targets(_target(b_col, src_b.domain_offset, width, False))
            narrow = False
        else:
            seen_columns = {a_col, b_col, carry}
            targets_list = []
            narrow = False
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
                narrow_dest = region_width < width
                narrow = narrow or narrow_dest
                targets_list.append(_target(column, offset, region_width, narrow_dest))
                events += (column, offset, offset, slot)
            targets = _targets(*targets_list)
        self.events.extend(events)
        self._slot(width, 2 if inplace else 2 + len(extra_dests))
        self.ops.append(
            _ArithOp(
                lut,
                _region_read(src_a),
                _region_read(src_b),
                _mask(width),
                targets,
                narrow,
                slot,
            )
        )
        self.write_phases += 1
        self.written_per_row += 1
        self.search_phases += width * lut.passes
        self.searched_per_row += 3 * width * lut.passes
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
        self.ops.append(
            _CopyOp(
                _region_read(src),
                _mask(width),
                _targets(
                    *(
                        _target(region.column, region.domain_offset, width, False)
                        for region in dests
                    )
                ),
                slot,
            )
        )
        self.search_phases += 2 * width
        self.searched_per_row += 2 * width
        self.written_per_row += width * len(dests)
        for region in dests:
            offset = region.domain_offset
            self.events.extend((region.column, offset, offset + width - 1, -1))
        return True

    def _clear(self, instruction) -> bool:
        dests = instruction.all_dests
        for region in dests:
            if not _region_fits(region, self.columns, self.domains):
                return False
        self.ops.append(
            _ClearOp(
                tuple(
                    (region.column, _keep(region.domain_offset, region.width))
                    for region in dests
                )
            )
        )
        for region in dests:
            offset = region.domain_offset
            self.events.extend(
                (region.column, offset, offset + region.width - 1, -1)
            )
            self.write_phases += region.width
            self.written_per_row += region.width
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
    (or one vectorized gather) of the layer's staged operand tensor.

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
    technology: Optional[RTMTechnology] = None,
    carry_column: int = 0,
) -> Optional[List[Dict[str, int]]]:
    """Pre-flight one tile's programs for host-staged wave execution.

    Lowers every program for the wave geometry (memoised - calling this at
    deploy time moves the whole lowering cost out of the serving window) and
    returns, per program, the operand name -> region width map the host
    stages.  Returns ``None`` when any program would decline wave execution,
    so the caller can route the layer to the per-payload path up front.
    """
    technology = technology or DEFAULT_RTM_TECHNOLOGY
    domains = technology.domains_per_nanowire
    if columns < 1 or domains > _WORD_BITS:
        return None
    load_widths: List[Dict[str, int]] = []
    for program in programs:
        if program.carry_column != carry_column:
            return None
        lowered = compile_program_wave(program, columns, domains)
        if lowered is None:
            return None
        load_widths.append({name: width for name, _, width in lowered.loads})
    return load_widths


# ----------------------------------------------------------------------
# The mega-kernel: batched instruction evaluation over packed words
# ----------------------------------------------------------------------
def _read(state: np.ndarray, read: _Read) -> np.ndarray:
    """Sign-extended int64 value of a region per (instance, row)."""
    words = state[read.column]
    if read.left:
        words = words << read.left
    return words.view(np.int64) >> read.right


def _merge(state: np.ndarray, target: _Target, bits: np.ndarray) -> None:
    """Write ``bits`` (masked, non-negative int64) into a destination word."""
    word = state[target.column]
    word &= target.keep
    bits = bits.view(np.uint64)
    if target.shift:
        bits = bits << target.shift
    word |= bits


def _run_ops(
    state: np.ndarray, ops: Sequence[object], fires: np.ndarray, counts: np.ndarray
) -> None:
    """Evaluate one program's ops on every instance of the chunk.

    ``fires[slot]`` receives one ``(passes, instances)`` fire record per
    arithmetic op (the OR over rows of each pass word) and, per copy, the
    OR and AND over rows of the copied word; ``counts[slot]`` the matched
    bits of an arithmetic op per instance.  Everything else a counter needs
    is static (see :func:`_replay`).
    """
    bitwise_or_reduce = np.bitwise_or.reduce
    add_reduce = np.add.reduce
    for op in ops:
        kind = op.__class__
        if kind is _ArithOp:
            lut = op.lut
            a = _read(state, op.a)
            b = _read(state, op.b)
            result = b + a if lut.add else b - a
            carries = a ^ b
            carries ^= result
            # One minterm word per pass: the bits whose (carry, b, a) state
            # that pass matches, masked to the instruction width.
            minterms = carries ^ lut.flip_c
            minterms &= b ^ lut.flip_b
            minterms &= a ^ lut.flip_a
            minterms &= op.mask
            bitwise_or_reduce(minterms, axis=2, out=fires[op.slot, : lut.passes])
            add_reduce(
                np.bitwise_count(minterms), axis=(0, 2), dtype=np.int64,
                out=counts[op.slot],
            )
            result &= op.mask
            if op.narrow:
                fired = bitwise_or_reduce(minterms, axis=0).view(np.uint64)
            for target in op.targets:
                if target.narrow:
                    word = state[target.column]
                    word &= ~(fired << target.shift)
                _merge(state, target, result)
        elif kind is _CopyOp:
            value = _read(state, op.src)
            bitwise_or_reduce(value, axis=1, out=fires[op.slot, 0])
            np.bitwise_and.reduce(value, axis=1, out=fires[op.slot, 1])
            value &= op.mask
            for target in op.targets:
                _merge(state, target, value)
        else:
            for column, keep in op.targets:
                word = state[column]
                word &= keep


class _ReplayPlan:
    """Data-independent accounting of one program sequence.

    Concatenates the programs' fire slots and alignment events, and splits
    the events by column: a column without data-dependent runs has the same
    shift steps on every instance (summed once here), the others are
    replayed per instance by :func:`_replay`.
    """

    def __init__(self, compiled: Sequence[_CompiledWaveProgram]) -> None:
        self.slot_bases: List[int] = []
        slot_widths: List[int] = []
        slot_columns: List[int] = []
        copy_slots: List[int] = []
        tables = [np.zeros((0, 4), dtype=np.int64)]
        for lowered in compiled:
            base = len(slot_widths)
            self.slot_bases.append(base)
            slot_widths += lowered.slot_widths
            slot_columns += lowered.slot_columns
            copy_slots += [base + slot for slot in lowered.copy_slots]
            table = np.frombuffer(lowered.events, dtype=np.intc).reshape(-1, 4)
            table = table.astype(np.int64)
            # Program-local fire slots become wave slots (static runs keep -1).
            table[table[:, 3] >= 0, 3] += base
            tables.append(table)
        self.slots = len(slot_widths)
        self.slot_masks = (np.int64(1) << np.array(slot_widths, dtype=np.int64)) - 1
        self.slot_columns = np.array(slot_columns, dtype=np.int64)
        self.copy_slots = np.array(copy_slots, dtype=np.intp)
        self.search_phases = sum(p.search_phases for p in compiled)
        self.searched_per_row = sum(p.searched_per_row for p in compiled)
        self.write_phases = sum(p.write_phases for p in compiled)
        self.written_per_row = sum(p.written_per_row for p in compiled)
        self.loaded_per_row = sum(p.loaded_per_row for p in compiled)
        self.read_per_row = sum(p.read_per_row for p in compiled)

        table = np.concatenate(tables)
        mixed = np.isin(table[:, 0], table[table[:, 3] >= 0, 0])
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


def _replay_plan(compiled: Sequence[_CompiledWaveProgram]) -> _ReplayPlan:
    """The :class:`_ReplayPlan` of a program sequence, memoised on its first
    program (a tile runs the same sequence on every request)."""
    if not compiled:
        return _ReplayPlan(compiled)
    key = tuple(compiled)
    plans = compiled[0].replay_plans
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _ReplayPlan(compiled)
    return plan


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
    """Per-instance ``(write_phases, written_bits, lockstep_shift_steps)``."""
    copies = plan.copy_slots
    if copies.size:
        # A copy writes the 0 bits where some row holds a 0: NOT of the AND.
        fires[copies, 1] = ~fires[copies, 1]
    fires &= plan.slot_masks[:, None, None]
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
            fired = np.bitwise_or.reduce(fires[plan.dynamic_slots], axis=1)
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


#: One instance's wave outcome: counters, per-program output dicts, checksum,
#: and the same outputs stacked as one ``(total outputs, rows)`` int64 matrix
#: (program order, names sorted within each program) for bulk reduction.
WaveResult = Tuple[CAMStats, List[Dict[str, np.ndarray]], int, np.ndarray]

#: Either input form accepted by :func:`execute_program_wave`.
WaveInputs = Union[
    Sequence[Sequence[Mapping[str, Sequence[int]]]], StagedWaveInputs
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


def _gather_load(
    name: str,
    width: int,
    program_index: int,
    inputs_per_instance: Sequence[Sequence[Mapping[str, Sequence[int]]]],
    rows: int,
) -> Optional[np.ndarray]:
    """Stack one input across instances; ``None`` if any vector is invalid."""
    stacked = np.empty((len(inputs_per_instance), rows), dtype=np.int64)
    for index, instance_inputs in enumerate(inputs_per_instance):
        values = np.asarray(instance_inputs[program_index][name])
        if values.shape != (rows,) or values.dtype.kind not in "iu":
            return None
        stacked[index] = values
    return stacked if _fits_signed(stacked, width) else None


def _validate_staged(
    compiled: Sequence[_CompiledWaveProgram], staged: StagedWaveInputs, rows: int
) -> bool:
    """Shape/range-check staged operand batches (once, before chunking).

    The same acceptance decision the per-instance gather makes: any missing
    name, wrong shape/dtype or out-of-range value declines the wave, so the
    caller falls back to per-instance dispatch where the ordinary backends
    raise their proper errors.
    """
    entries = staged.values
    if len(entries) != len(compiled):
        _decline("malformed-inputs", programs=len(compiled))
        return False
    total = staged.instances
    for program_index, lowered in enumerate(compiled):
        provided = entries[program_index]
        for name, _, width in lowered.loads:
            batch = provided.get(name)
            if batch is None:
                _decline("missing-input", program=program_index)
                return False
            if (
                batch.shape != (total, rows)
                or batch.dtype.kind not in "iu"
                or not _fits_signed(batch, width)
            ):
                _decline("invalid-input", name=name, program=program_index)
                return False
    return True


def execute_program_wave(
    programs: Sequence[APProgram],
    inputs_per_instance: WaveInputs,
    rows: int,
    columns: int,
    technology: Optional[RTMTechnology] = None,
    carry_column: int = 0,
) -> Optional[List[WaveResult]]:
    """Execute one tile's program sequence for many instances at once.

    Every instance models a fresh ``rows x columns`` AP running ``programs``
    back to back on its own input set (the exact contract of a pooled or
    fresh-worker AP executing one tile).  ``inputs_per_instance`` is either
    the one-dict-per-(instance, program) form or a host-staged
    :class:`StagedWaveInputs` batch.  Returns one ``(CAMStats, outputs,
    checksum, stacked outputs)`` tuple per instance - byte-identical to
    running each instance alone on any registered backend - or ``None`` when
    the wave cannot take the batched path (unsupported instruction shapes,
    geometry, or malformed inputs), in which case the caller must fall back
    to per-instance dispatch.
    """
    technology = technology or DEFAULT_RTM_TECHNOLOGY
    domains = technology.domains_per_nanowire
    staged = isinstance(inputs_per_instance, StagedWaveInputs)
    total = (
        inputs_per_instance.instances if staged else len(inputs_per_instance)
    )
    if total == 0:
        return []
    if rows < 1 or columns < 1 or domains > _WORD_BITS:
        _decline("geometry", rows=rows, columns=columns, domains=domains)
        return None
    if staged and inputs_per_instance.rows != rows:
        _decline("geometry", rows=rows, staged_rows=inputs_per_instance.rows)
        return None

    compiled: List[_CompiledWaveProgram] = []
    for program in programs:
        if program.carry_column != carry_column:
            _decline(
                "carry-mismatch",
                program=program.carry_column,
                wave=carry_column,
            )
            return None
        lowered = compile_program_wave(program, columns, domains)
        if lowered is None:
            _decline("program-lowering", columns=columns, domains=domains)
            return None
        compiled.append(lowered)
    if staged:
        if not _validate_staged(compiled, inputs_per_instance, rows):
            return None
    else:
        if any(len(instance) != len(programs) for instance in inputs_per_instance):
            _decline("malformed-inputs", programs=len(programs))
            return None
        for program_index, lowered in enumerate(compiled):
            for instance_inputs in inputs_per_instance:
                provided = instance_inputs[program_index]
                if any(name not in provided for name, _, _ in lowered.loads):
                    _decline("missing-input", program=program_index)
                    return None

    plan = _replay_plan(compiled)
    # Chunk the wave so the words, the minterm temporaries and the output
    # matrix stay bounded; instances are independent, so chunked and
    # unchunked execution are byte-identical.
    total_outputs = sum(len(lowered.read_names) for lowered in compiled)
    per_instance_bytes = 8 * (
        rows * (columns + 3 * _MAX_PASSES + total_outputs)
        + plan.slots * (_MAX_PASSES + 1)
        + 6 * len(plan.events)
    )
    chunk = max(1, min(total, _MAX_WAVE_STATE_BYTES // per_instance_bytes))
    results: List[WaveResult] = []
    with telemetry.span(
        "backend.wave",
        category="device",
        programs=len(programs),
        instances=total,
        rows=rows,
        columns=columns,
    ):
        for start in range(0, total, chunk):
            if staged:
                instances = (inputs_per_instance, start, min(start + chunk, total))
            else:
                instances = inputs_per_instance[start : start + chunk]
            chunk_results = _execute_wave_chunk(
                compiled, plan, instances, rows, columns
            )
            if chunk_results is None:
                return None
            results.extend(chunk_results)
    return results


def _load(state: np.ndarray, target: _Target, width: int, values) -> None:
    """Place a ``(instances, rows)`` operand batch (input placement)."""
    bits = values.astype(np.int64)
    bits &= _mask(width)
    _merge(state, target, bits)


def _execute_wave_chunk(
    compiled: Sequence[_CompiledWaveProgram],
    plan: _ReplayPlan,
    inputs_per_instance,
    rows: int,
    columns: int,
) -> Optional[List[WaveResult]]:
    staged = isinstance(inputs_per_instance, tuple)
    if staged:
        staged_inputs, chunk_start, chunk_stop = inputs_per_instance
        instances = chunk_stop - chunk_start
    else:
        instances = len(inputs_per_instance)
    state = np.zeros((columns, instances, rows), dtype=np.uint64)
    fires = np.zeros((plan.slots, _MAX_PASSES, instances), dtype=np.int64)
    counts = np.zeros((plan.slots, instances), dtype=np.int64)
    # All instances' outputs in one matrix: slot order is (program order,
    # names sorted within each program), so ``stacked[instance]`` is exactly
    # the per-payload partial-sum matrix the inference reduction consumes.
    stacked = np.empty(
        (instances, sum(len(p.read_names) for p in compiled), rows), dtype=np.int64
    )
    slot = 0
    for program_index, lowered in enumerate(compiled):
        # Loading operands into the wave state is host work (the payload
        # fan-out), not CAM arithmetic: charge it to the ``host.stage``
        # ledger so the host/device split prices it honestly.
        if staged:
            with telemetry.span("host.stage", category="host", mode="wave-load"):
                provided = staged_inputs.values[program_index]
                for name, target, width in lowered.loads:
                    _load(
                        state, target, width, provided[name][chunk_start:chunk_stop]
                    )
        else:
            with telemetry.span("host.stage", category="host", mode="gather"):
                for name, target, width in lowered.loads:
                    gathered = _gather_load(
                        name, width, program_index, inputs_per_instance, rows
                    )
                    if gathered is None:
                        _decline("invalid-input", name=name, program=program_index)
                        return None
                    _load(state, target, width, gathered)
        base = plan.slot_bases[program_index]
        _run_ops(
            state,
            lowered.ops,
            fires[base : base + lowered.slots],
            counts[base : base + lowered.slots],
        )
        for group in lowered.read_groups:
            # One gather reads every output of the group: (outputs,
            # instances, rows) -> (instances, outputs, rows).
            words = state[group.columns]
            if group.read.left:
                words <<= group.read.left
            values = words.view(np.int64)
            values >>= group.read.right
            if group.negated is not None:
                values[group.negated] = -values[group.negated]
            slots = group.slots
            if isinstance(slots, slice):
                slots = slice(slot + slots.start, slot + slots.stop)
            else:
                slots = slots + slot
            stacked[:, slots] = values.transpose(1, 0, 2)
        slot += len(lowered.read_names)

    write_phases, written_bits, lockstep = _replay(plan, fires, counts, rows)
    search_phases = plan.search_phases
    searched_bits = plan.searched_per_row * rows
    read_bits = plan.read_per_row * rows
    loaded_bits = plan.loaded_per_row * rows
    # int64 addition is associative modulo 2**64, so the batched row sums
    # equal each instance's own ``values.sum()`` bit for bit; the checksum
    # folds them as Python ints, exactly like a per-instance run.
    totals = stacked.sum(axis=2).tolist()
    results: List[WaveResult] = []
    for instance, (phases, bits, steps) in enumerate(
        zip(write_phases.tolist(), written_bits.tolist(), lockstep.tolist())
    ):
        instance_rows = stacked[instance]
        rows_list = list(instance_rows)
        outputs_list: List[Dict[str, np.ndarray]] = []
        position = 0
        for lowered in compiled:
            names = lowered.read_names
            end = position + len(names)
            outputs_list.append(dict(zip(names, rows_list[position:end])))
            position = end
        stats = CAMStats(
            search_phases=search_phases,
            searched_bits=searched_bits,
            write_phases=phases,
            written_bits=bits,
            lockstep_shift_steps=steps,
            track_shifts=steps * rows,
            read_bits=read_bits,
            loaded_bits=loaded_bits,
        )
        results.append((stats, outputs_list, sum(totals[instance]), instance_rows))
    return results
