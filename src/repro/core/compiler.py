"""End-to-end compilation driver (paper Fig. 3a).

Two granularities are offered:

* :func:`compile_slice` lowers the weight slice of one input channel all the
  way to an executable :class:`~repro.ap.isa.APProgram` (DFG, schedule,
  column allocation, code generation).  This is what the functional
  validation, the examples and the integration tests use.
* :func:`compile_layer` / :func:`compile_model` compile every slice of a layer
  / network and aggregate the *statistics* the performance model needs
  (operation counts by bit width, in-/out-of-place split, accumulation work,
  mapping information).  Full instruction streams are only materialised when
  ``emit_programs=True``; for ImageNet-scale networks the statistics path is
  used, optionally with slice sampling (see ``CompilerConfig.max_slices_per_layer``).
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import ArchitectureConfig
from repro.core.bitwidth import activation_range
from repro.core.cse import CSEResult, eliminate_common_subexpressions
from repro.core.dfg import ChannelDFG, build_channel_dfg
from repro.core.expr import LinearExpression
from repro.core.folding import fold_weight_slice
from repro.core.codegen import generate_program
from repro.core.mapping import LayerMapping, map_layer
from repro.core.scheduling import Schedule, schedule_dfg
from repro.ap.isa import APProgram
from repro.errors import CompilationError
from repro.nn.stats import ConvLayerSpec
from repro.utils.bitops import bits_for_signed_range
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CompilerConfig:
    """Options of the compilation flow.

    Attributes:
        enable_cse: apply common-subexpression elimination (the paper's
            ``unroll+CSE`` configuration); disabling it gives ``unroll``.
        activation_bits: precision of the quantized activations (4 or 8 in the
            paper).
        signed_activations: whether activations carry a sign (post-ReLU LSQ
            activations are unsigned).
        architecture: target accelerator description.
        prefer_inplace: let the scheduler choose in-place operations.
        min_cse_occurrences: minimum pattern frequency for extraction.
        max_slices_per_layer: when set, only this many input-channel slices
            per layer are compiled and the statistics are scaled up - a
            documented speed/accuracy trade-off used by the large benchmarks.
            The same sampling applies when programs are emitted
            (``emit_programs=True``): the runtime's functional plan execution
            then simulates the sampled subset and records the scale factor.
    """

    enable_cse: bool = True
    activation_bits: int = 4
    signed_activations: bool = False
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    prefer_inplace: bool = True
    min_cse_occurrences: int = 2
    max_slices_per_layer: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive("activation_bits", self.activation_bits)
        if self.max_slices_per_layer is not None:
            check_positive("max_slices_per_layer", self.max_slices_per_layer)

    @property
    def configuration_name(self) -> str:
        """The paper's name for this configuration."""
        return "unroll+CSE" if self.enable_cse else "unroll"

    @property
    def effective_architecture(self) -> ArchitectureConfig:
        """Architecture with the compiler's activation precision applied."""
        if self.architecture.activation_bits == self.activation_bits:
            return self.architecture
        return self.architecture.with_activation_bits(self.activation_bits)


# ----------------------------------------------------------------------
# Per-slice statistics
# ----------------------------------------------------------------------
@dataclass
class SliceStatistics:
    """Operation statistics of one input channel's weight slice."""

    channel_index: int
    #: Channel-wise DFG phase operations (CSE definitions + row chains).
    dfg_ops: int
    #: Local accumulation operations (one per non-empty partial OFM row).
    accumulation_ops: int
    #: DFG-phase operation count per bit width.
    op_width_histogram: Dict[int, int]
    #: Extracted CSE temporaries.
    num_definitions: int
    #: Non-zero weights in the slice (= the ``unroll`` configuration's ops).
    unrolled_ops: int
    #: Estimated in-place / out-of-place split of the DFG-phase ops.
    inplace_ops: int
    outofplace_ops: int

    @property
    def total_ops(self) -> int:
        """DFG plus local accumulation operations."""
        return self.dfg_ops + self.accumulation_ops


def _slice_statistics(
    channel_index: int,
    rows: Sequence[LinearExpression],
    cse_result: Optional[CSEResult],
    unrolled_ops: int,
    config: CompilerConfig,
) -> SliceStatistics:
    """Compute the statistics of one slice without materialising a DFG.

    Value ranges are carried as plain ``(lo, hi)`` integer pairs: a term adds
    its operand's range, a negated term subtracts it.
    """
    input_range = activation_range(config.activation_bits, config.signed_activations)
    input_lo, input_hi = input_range.lo, input_range.hi
    temp_ranges: Dict[int, Tuple[int, int]] = {}

    def expression_range(terms) -> Tuple[int, int]:
        lo = hi = 0
        for term, sign in terms:
            if term.kind == "input":
                term_lo, term_hi = input_lo, input_hi
            else:
                term_lo, term_hi = temp_ranges[term.index]
            if sign < 0:
                lo -= term_hi
                hi -= term_lo
            else:
                lo += term_lo
                hi += term_hi
        return lo, hi

    histogram: Dict[int, int] = {}
    dfg_ops = 0
    inplace_ops = 0
    outofplace_ops = 0

    definitions = cse_result.definitions if cse_result is not None else []
    for definition in definitions:
        lo, hi = temp_ranges[definition.temp.index] = expression_range(
            (definition.first, definition.second)
        )
        width = bits_for_signed_range(lo, hi)
        histogram[width] = histogram.get(width, 0) + 1
        dfg_ops += 1
        outofplace_ops += 1

    accumulation_ops = 0
    for row in rows:
        num_terms = len(row)
        if num_terms == 0:
            continue
        accumulation_ops += 1
        if num_terms < 2:
            continue
        width = bits_for_signed_range(*expression_range(row))
        chain_ops = num_terms - 1
        histogram[width] = histogram.get(width, 0) + chain_ops
        dfg_ops += chain_ops
        # The first chain op writes a fresh accumulator column; the rest
        # overwrite it in place.
        outofplace_ops += 1
        inplace_ops += chain_ops - 1
    return SliceStatistics(
        channel_index=channel_index,
        dfg_ops=dfg_ops,
        accumulation_ops=accumulation_ops,
        op_width_histogram=histogram,
        num_definitions=len(definitions),
        unrolled_ops=unrolled_ops,
        inplace_ops=inplace_ops,
        outofplace_ops=outofplace_ops,
    )


def _slice_statistics_from_weights(
    channel_index: int,
    weight_slice: np.ndarray,
    config: CompilerConfig,
) -> SliceStatistics:
    """Fast statistics path for the ``unroll`` configuration (no CSE).

    With no temporaries, every row is just its non-zero weights, so the counts
    and per-row widths follow directly from the per-row positive/negative
    weight counts - no expression objects are needed.
    """
    input_range = activation_range(config.activation_bits, config.signed_activations)
    positive = (weight_slice > 0).sum(axis=1)
    negative = (weight_slice < 0).sum(axis=1)
    terms = positive + negative
    histogram: Dict[int, int] = {}
    dfg_ops = 0
    inplace_ops = 0
    outofplace_ops = 0
    accumulation_ops = 0
    for pos, neg in zip(positive, negative):
        num_terms = int(pos + neg)
        if num_terms == 0:
            continue
        accumulation_ops += 1
        if num_terms < 2:
            continue
        width = bits_for_signed_range(
            int(pos) * input_range.lo - int(neg) * input_range.hi,
            int(pos) * input_range.hi - int(neg) * input_range.lo,
        )
        chain_ops = num_terms - 1
        histogram[width] = histogram.get(width, 0) + chain_ops
        dfg_ops += chain_ops
        outofplace_ops += 1
        inplace_ops += chain_ops - 1
    return SliceStatistics(
        channel_index=channel_index,
        dfg_ops=dfg_ops,
        accumulation_ops=accumulation_ops,
        op_width_histogram=histogram,
        num_definitions=0,
        unrolled_ops=int(terms.sum()),
        inplace_ops=inplace_ops,
        outofplace_ops=outofplace_ops,
    )


# ----------------------------------------------------------------------
# Per-slice full compilation
# ----------------------------------------------------------------------
@dataclass
class CompiledSlice:
    """Fully-lowered result for one input channel."""

    channel_index: int
    dfg: ChannelDFG
    schedule: Schedule
    program: APProgram
    statistics: SliceStatistics
    cse: Optional[CSEResult]


def compile_slice(
    weight_slice: np.ndarray,
    config: Optional[CompilerConfig] = None,
    channel_index: int = 0,
    name: str = "slice",
) -> CompiledSlice:
    """Compile one ``(Cout, Fh*Fw)`` ternary weight slice to an AP program."""
    config = config or CompilerConfig()
    unrolled_ops = int(np.count_nonzero(np.asarray(weight_slice)))
    cse_result: Optional[CSEResult] = None
    if config.enable_cse:
        cse_result = eliminate_common_subexpressions(
            np.asarray(weight_slice), min_occurrences=config.min_cse_occurrences
        )
        working_rows = cse_result.rows
    else:
        working_rows = fold_weight_slice(weight_slice)
    dfg = build_channel_dfg(
        working_rows,
        definitions=cse_result,
        activation_bits=config.activation_bits,
        signed_activations=config.signed_activations,
    )
    architecture = config.effective_architecture
    schedule = schedule_dfg(
        dfg,
        usable_columns=architecture.ap.usable_columns,
        first_column=1,
        prefer_inplace=config.prefer_inplace,
    )
    program = generate_program(
        schedule,
        activation_bits=config.activation_bits,
        name=f"{name}.ch{channel_index}.{config.configuration_name}",
    )
    statistics = _slice_statistics(
        channel_index, working_rows, cse_result, unrolled_ops, config
    )
    return CompiledSlice(
        channel_index=channel_index,
        dfg=dfg,
        schedule=schedule,
        program=program,
        statistics=statistics,
        cse=cse_result,
    )


# ----------------------------------------------------------------------
# Per-layer compilation
# ----------------------------------------------------------------------
@dataclass
class CompiledLayer:
    """Aggregated compilation result of one layer."""

    name: str
    config: CompilerConfig
    mapping: LayerMapping
    #: Channel-wise DFG phase ops of the whole layer (all input channels).
    dfg_ops: int
    #: Local accumulation ops of the whole layer.
    accumulation_ops: int
    #: DFG-phase op count per bit width.
    dfg_width_histogram: Dict[int, int]
    #: In-/out-of-place split of the DFG-phase ops.
    inplace_ops: int
    outofplace_ops: int
    #: Non-zero weights (= ops of the ``unroll`` configuration).
    unrolled_ops: int
    #: Number of CSE temporaries extracted across all slices.
    cse_definitions: int
    #: Slices actually compiled and the factor used to scale the statistics.
    compiled_slices: int = 0
    scale_factor: float = 1.0
    #: Full per-slice artefacts (only kept when ``emit_programs=True``).
    slices: List[CompiledSlice] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        """The paper's #Adds/Subs metric: DFG plus local accumulation ops."""
        return self.dfg_ops + self.accumulation_ops

    @property
    def accumulator_width(self) -> int:
        """Bit width of the layer's output accumulators."""
        return self.mapping.accumulator_width


def compile_layer(
    spec: ConvLayerSpec,
    config: Optional[CompilerConfig] = None,
    emit_programs: bool = False,
) -> CompiledLayer:
    """Compile every input-channel slice of a layer and aggregate statistics."""
    config = config or CompilerConfig()
    architecture = config.effective_architecture
    mapping = map_layer(spec, architecture, config.signed_activations)

    channel_indices = list(range(spec.in_channels))
    if (
        config.max_slices_per_layer is not None
        and spec.in_channels > config.max_slices_per_layer
    ):
        stride = spec.in_channels / config.max_slices_per_layer
        channel_indices = sorted({int(i * stride) for i in range(config.max_slices_per_layer)})
    scale = spec.in_channels / len(channel_indices)

    dfg_ops = 0
    accumulation_ops = 0
    inplace_ops = 0
    outofplace_ops = 0
    unrolled_ops = 0
    cse_definitions = 0
    histogram: Dict[int, int] = {}
    slices: List[CompiledSlice] = []

    for channel in channel_indices:
        weight_slice = spec.weight_slice(channel)
        if emit_programs:
            compiled = compile_slice(weight_slice, config, channel, name=spec.name)
            statistics = compiled.statistics
            slices.append(compiled)
        elif config.enable_cse:
            slice_unrolled = int(np.count_nonzero(weight_slice))
            cse_result = eliminate_common_subexpressions(
                weight_slice, min_occurrences=config.min_cse_occurrences
            )
            statistics = _slice_statistics(
                channel, cse_result.rows, cse_result, slice_unrolled, config
            )
        else:
            statistics = _slice_statistics_from_weights(channel, weight_slice, config)
        dfg_ops += statistics.dfg_ops
        accumulation_ops += statistics.accumulation_ops
        inplace_ops += statistics.inplace_ops
        outofplace_ops += statistics.outofplace_ops
        unrolled_ops += statistics.unrolled_ops
        cse_definitions += statistics.num_definitions
        for width, count in statistics.op_width_histogram.items():
            histogram[width] = histogram.get(width, 0) + count

    if scale != 1.0:
        dfg_ops = int(round(dfg_ops * scale))
        accumulation_ops = int(round(accumulation_ops * scale))
        inplace_ops = int(round(inplace_ops * scale))
        outofplace_ops = int(round(outofplace_ops * scale))
        unrolled_ops = int(round(unrolled_ops * scale))
        cse_definitions = int(round(cse_definitions * scale))
        histogram = {
            width: int(round(count * scale)) for width, count in histogram.items()
        }

    return CompiledLayer(
        name=spec.name,
        config=config,
        mapping=mapping,
        dfg_ops=dfg_ops,
        accumulation_ops=accumulation_ops,
        dfg_width_histogram=histogram,
        inplace_ops=inplace_ops,
        outofplace_ops=outofplace_ops,
        unrolled_ops=unrolled_ops,
        cse_definitions=cse_definitions,
        compiled_slices=len(channel_indices),
        scale_factor=scale,
        slices=slices,
    )


# ----------------------------------------------------------------------
# Whole-model compilation
# ----------------------------------------------------------------------
@dataclass
class CompiledModel:
    """Compilation result of a whole network."""

    name: str
    config: CompilerConfig
    layers: List[CompiledLayer]

    @property
    def total_ops(self) -> int:
        """Network-wide #Adds/Subs (the paper's Table II metric)."""
        return sum(layer.total_ops for layer in self.layers)

    @property
    def total_unrolled_ops(self) -> int:
        """Network-wide ops of the ``unroll`` configuration (non-zero weights)."""
        return sum(layer.unrolled_ops for layer in self.layers)

    @property
    def arrays_required(self) -> int:
        """The paper's "# Arrays" metric: the worst layer's row-tile demand."""
        return max((layer.mapping.row_tiles for layer in self.layers), default=0)

    def layer_by_name(self, name: str) -> CompiledLayer:
        """Look up a layer by its (frontend-assigned) name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise CompilationError(f"no compiled layer named {name!r}")


_gc_pause_lock = threading.Lock()
_gc_pause_depth = 0
_gc_was_enabled = False


@contextmanager
def _cyclic_gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while the block runs.

    Compilation allocates millions of small objects (DFG nodes, schedules,
    instructions) that form no reference cycles, so reference counting frees
    every temporary; the generational collector would only rescan the
    growing compiled model, again and again (about 45% of a full-width
    ResNet-18 compile).  Nested and concurrent pauses share one depth count,
    and the last one out restores the collector's previous state.  Unless
    the process froze objects itself (``gc.freeze``), the last one out also
    moves the survivors straight into the oldest generation.
    """
    global _gc_pause_depth, _gc_was_enabled
    with _gc_pause_lock:
        if _gc_pause_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pause_depth += 1
    try:
        yield
    finally:
        with _gc_pause_lock:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_was_enabled:
                if gc.get_freeze_count() == 0:
                    # Freezing and unfreezing moves every tracked object,
                    # the new compiled model included, into the oldest
                    # generation without a traversal, so the young
                    # collections that follow do not rescan it.
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()


def compile_model(
    specs: Sequence[ConvLayerSpec],
    config: Optional[CompilerConfig] = None,
    name: str = "model",
    emit_programs: bool = False,
) -> CompiledModel:
    """Compile every layer of a network."""
    config = config or CompilerConfig()
    with _cyclic_gc_paused():
        layers = [
            compile_layer(spec, config, emit_programs=emit_programs) for spec in specs
        ]
    return CompiledModel(name=name, config=config, layers=layers)
