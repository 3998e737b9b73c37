"""Batched end-to-end inference on the execution-plan runtime.

:class:`BatchedInference` runs N images through one compiled model on one
leased AP pool: every weight layer's *real* quantized activations are lowered
to AP row operands (:mod:`repro.inference.activations`), executed as the
layer's :class:`~repro.runtime.plan.TileProgram` streams, and reduced into
exact integer partial sums.  The host executes the model's interstitial
operators (batch norm, ReLU, pooling, residual adds) between layers, so the
logits of the AP dataflow must match the pure-NumPy quantized reference
(:func:`repro.inference.reference.quantized_reference_forward`) exactly.

Every layer runs one way: layer-synchronously, the word-parallel search of
the paper's AP.  Every index between a layer's codes and its AP rows is
fixed at deploy: there, each wave group lowers an image of feature ids
(:func:`~repro.inference.activations.lower_batch_rows`, zero padding
becoming id 0), stages it and keeps its lockstep blocks' loads as
:func:`~repro.ap.backends.batched.wave_gather_index` arrays.  A request
writes the batch's codes once into a zero-led array in the tiles' word
dtype and hands each group one
:class:`~repro.ap.backends.batched.WaveGather`, which
:func:`~repro.ap.backends.batched.execute_program_wave` lays out with one
``take`` per block - no im2col, staging dict or range check per request,
because deploy proved the quantizer's codes fit every load width (a layer
whose proof fails checks its codes per request).  The wave returns one
:class:`~repro.ap.backends.batched.WaveBatch` for the whole group, which
the layer epilogue reduces as a whole: the outputs fold over the program
axis in the narrowest exact accumulator and add into the layer accumulator
once per tile position, the counters fill an ``(images, tiles, 8)`` matrix
for :func:`~repro.runtime.scheduler.aggregate_layer_run`, and residency is
accounted once per tile.  Instances no wave takes - the ``reference``
backend, codes wider than the narrowest load width, a declined wave -
lower lazily through ``lower_batch_rows`` and :func:`_stage_group` and go
to the executor in one order-preserving
:meth:`~repro.runtime.executors.Executor.map_layer` call per layer.  A
group falls back as a whole, so its per-instance results stack into the
same ``(outputs, instances, rows)`` and ``(instances, 8)`` arrays as a
wave's and reduce through the same epilogue.  Both routes produce the same
outputs, checksums and :class:`~repro.cam.stats.CAMStats`, so every backend
and executor is byte-identical.

A run is request-scoped: its activation store and per-layer counters live in
one :class:`_Request` bound to the calling thread, so overlapping requests
(:meth:`repro.session.Session.submit`) share one engine and one patched
model.  Per-image quantization and exact integer reductions make batched,
micro-batched and one-by-one execution byte-identical.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.ap.backends import resolve_backend
from repro.ap.backends.batched import (
    StagedWaveInputs,
    WaveGather,
    execute_program_wave,
    wave_gather_index,
    wave_staging_plan,
)
from repro.ap.core import AssociativeProcessor
from repro.arch.accelerator import Accelerator
from repro.cam.stats import COUNTER_FIELDS, CAMStats
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import CapacityError, ModelDefinitionError, SimulationError
from repro.inference.activations import (
    ActivationStore,
    dequantize_batch,
    lower_batch_planes,
    lower_batch_rows,
    lower_input_rows,
    normalize_images,
)
from repro.inference.dataflow import (
    DataflowGraph,
    DataflowNode,
    patch_weight_layers,
)
from repro.nn.layers import Module
from repro.nn.quantization import QuantizationConfig
from repro.nn.stats import model_layer_specs
from repro.runtime.executors import ExecutorSpec, make_lease, resolve_executor
from repro.runtime.plan import build_execution_plan
from repro.runtime.scheduler import (
    LayerRunResult,
    PlanExecution,
    aggregate_layer_run,
    charge_adder_tree_movement,
    counter_rows,
)
from repro.utils.bitops import max_signed_value, min_signed_value

#: ``lower_batch_planes`` and ``lower_input_rows`` are no longer called here;
#: they stay exported because ``perfbench/tracing.py`` times every lowering
#: function under this module's names.
__all__ = [
    "BatchedInference",
    "InferenceResult",
    "InferenceTileResult",
    "lower_batch_planes",
    "lower_input_rows",
]


@dataclass(frozen=True)
class InferenceTileResult:
    """Outcome of one (image, tile program) work item of the per-instance
    path."""

    image_index: int
    address: tuple
    stats: CAMStats
    #: One ``{output name: integer partial-sum vector}`` dict per slice
    #: program of the tile (real data, unlike the synthetic-path checksums).
    outputs: Tuple[Dict[str, np.ndarray], ...]
    checksum: int
    duration_s: float


def _inference_tile_worker(payload, ap=None) -> InferenceTileResult:
    """Execute one tile program on one image's real activations.

    Module-level so process pools can pickle the call; ``ap`` is a pre-leased
    pooled AP when the serial path runs in-process (byte-identical to the
    fresh AP a pool worker builds, per the lease contract).
    """
    tile, image_index, columns, backend, technology, inputs_list = payload
    start = time.perf_counter()
    with telemetry.span(
        "device.tile",
        category="device",
        layer=tile.layer_index,
        image=image_index,
        ap=str(tuple(tile.address)),
        backend=str(backend),
    ):
        if ap is None:
            ap = AssociativeProcessor(
                rows=tile.rows, columns=columns, technology=technology, backend=backend
            )
        outputs_list = []
        checksum = 0
        for program, inputs in zip(tile.programs, inputs_list):
            outputs = ap.run_program(program, inputs, num_rows=tile.rows)
            converted: Dict[str, np.ndarray] = {}
            for name in sorted(outputs):
                values = np.asarray(outputs[name], dtype=np.int64)
                checksum += int(values.sum())
                converted[name] = values
            outputs_list.append(converted)
    return InferenceTileResult(
        image_index=image_index,
        address=tuple(tile.address),
        stats=ap.reset_stats(),
        outputs=tuple(outputs_list),
        checksum=checksum,
        duration_s=time.perf_counter() - start,
    )


#: Fold accumulators, narrowest first (see :meth:`_Fold.accumulator`).
_FOLD_DTYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int32)))


class _Fold:
    """Static reduction of a tile's outputs onto the layer's output channels.

    Outputs come in (program order, names sorted within each program) order.
    When every program emits the same channels (a *uniform* tile: one
    input-channel slice per program), summing the program axis of a
    ``(programs, channels, ...)`` reshape folds them.  Otherwise a stable
    permutation makes each channel's outputs one run, and
    ``np.add.reduceat`` sums the runs.  ``targets`` indexes the accumulator
    channel of each folded row (a slice when they are contiguous).
    """

    __slots__ = ("programs", "order", "starts", "targets")

    def __init__(self, names_seq: List[Tuple[str, ...]], channels: np.ndarray) -> None:
        self.programs = len(names_seq)
        self.order: Optional[np.ndarray] = None
        self.starts: Optional[np.ndarray] = None
        if len(set(names_seq)) <= 1:
            targets = channels[: len(names_seq[0])]
        else:
            self.order = np.argsort(channels, kind="stable")
            ordered = channels[self.order]
            self.starts = np.flatnonzero(np.diff(ordered, prepend=-1))
            targets = ordered[self.starts]
        contiguous = (np.diff(targets) == 1).all()
        self.targets = (
            slice(int(targets[0]), int(targets[-1]) + 1) if contiguous else targets
        )

    def accumulator(self, dtype: np.dtype) -> np.dtype:
        """The narrowest signed dtype that sums the program axis of ``dtype``
        outputs exactly.

        A channel gets at most one output per program (names are unique
        within a program), so every sum has at most ``programs`` terms of
        magnitude at most ``2**(bits - 1)``: ``programs * 2**(bits - 1)``
        must fit the accumulator's range.
        """
        bits = 8 * dtype.itemsize
        for candidate in _FOLD_DTYPES:
            if candidate.itemsize >= dtype.itemsize and (
                self.programs << (bits - 1) <= 1 << (8 * candidate.itemsize - 1)
            ):
                return candidate
        return np.dtype(np.int64)

    def __call__(self, outputs: np.ndarray) -> np.ndarray:
        """Fold ``(outputs, instances, rows)`` partial sums to ``(targets,
        instances, rows)`` exact int64 sums."""
        accumulator = self.accumulator(outputs.dtype)
        if self.order is None:
            folded = outputs.reshape(self.programs, -1, *outputs.shape[1:]).sum(
                axis=0, dtype=accumulator
            )
        else:
            folded = np.add.reduceat(
                outputs[self.order], self.starts, axis=0, dtype=accumulator
            )
        return folded.astype(np.int64, copy=False)


class _TileGroup:
    """One layer's tiles that share compiled programs, rows and channels.

    The staging unit of a layer: all ``(image, tile)`` instances of the group
    run as one wave, image-major and tile-minor, so instance ``i`` is image
    ``i // tiles`` on tile ``tile_indices[i % tiles]``.  ``wave`` says
    whether the programs run as a wave (always ``False`` on backends without
    one); a wave group's ``index`` holds each lockstep block's deploy-planned
    gather indices and ``word`` its schedule's word dtype.

    The static reduction layout: each program emits its outputs in
    sorted-name order (``names_seq``), so the output channel of every
    partial-sum row (``channels``) is known before execution.  ``fold``
    reduces a wave's outputs by that layout (``None`` when the programs emit
    none).
    """

    __slots__ = (
        "tile",
        "rows",
        "tile_indices",
        "starts",
        "bindings",
        "rows_idx",
        "wave",
        "word",
        "index",
        "names_seq",
        "channels",
        "fold",
    )

    def __init__(self, tile, rows: int, bindings, wave: bool) -> None:
        self.tile = tile
        self.rows = rows
        self.bindings = bindings
        self.wave = wave
        self.word: Optional[np.dtype] = None
        self.index: Optional[List[np.ndarray]] = None
        self.names_seq = [
            tuple(sorted(program.output_columns)) for program in tile.programs
        ]
        self.channels = np.array(
            [int(name[1:]) for names in self.names_seq for name in names],
            dtype=np.intp,
        )
        self.fold = _Fold(self.names_seq, self.channels) if self.channels.size else None
        self.tile_indices: List[int] = []
        self.starts: List[int] = []
        #: Lazily built ``(tiles, rows)`` row-gather index (multi-tile groups).
        self.rows_idx: Optional[np.ndarray] = None


class _NodePlan:
    """Per-layer host dataflow plan, built once per engine.

    ``tiles`` are the layer's tile programs; ``groups`` stages them.
    ``shape`` is the layer's un-batched code shape, the one its gather
    indices were planned for.  ``min_width`` is the narrowest wave load
    width - codes outside its signed range skip the wave, and the
    per-instance backends raise the proper range errors for them.
    ``proven`` says whether deploy proved that every code the quantizer can
    emit fits ``min_width``; only unproven layers check codes per request.
    """

    __slots__ = ("tiles", "groups", "shape", "min_width", "proven")

    def __init__(self, tiles, groups, shape, min_width, proven) -> None:
        self.tiles = tiles
        self.groups = groups
        self.shape = shape
        self.min_width = min_width
        self.proven = proven


def _plan_node(
    node, columns: int, technology, wave_capable: bool, codes: QuantizationConfig
) -> _NodePlan:
    """Group one layer's tiles for staging and plan their reductions.

    On wave-capable backends :func:`wave_staging_plan` - called here, at
    engine construction - also pre-lowers every program to its wave form,
    moving the whole compile-to-wave cost out of the first request.  Then
    one image of feature ids (``1 .. C*H*W``; zero padding becomes id 0) is
    lowered and staged like a request's codes, and each wave group keeps
    its blocks' loads of that image as gather indices.  Each tile's add/sub
    count, which layer aggregation reads on every request, is counted here
    too.  The range proof compares ``min_width`` with the quantizer's
    ``[qmin, qmax]`` for ``codes``.
    """
    rows_per_ap = node.mapping.rows_per_ap
    groups: List[_TileGroup] = []
    by_key: Dict[tuple, _TileGroup] = {}
    widths_seen: set = set()
    for index, tile in enumerate(node.planned.tiles):
        # Fills the tile's cached add/sub count before the first request.
        tile.num_arithmetic_ops
        key = (
            tuple(id(program) for program in tile.programs),
            tile.rows,
            tuple(tile.channel_indices),
        )
        group = by_key.get(key)
        if group is None:
            load_widths = (
                wave_staging_plan(
                    tile.programs, columns, tile.rows, technology=technology
                )
                if wave_capable
                else None
            )
            for widths in load_widths or ():
                widths_seen.update(widths.values())
            bindings = [
                (channel, [(name, int(name[1:])) for name in program.input_columns])
                for channel, program in zip(tile.channel_indices, tile.programs)
            ]
            group = by_key[key] = _TileGroup(
                tile, tile.rows, bindings, wave=load_widths is not None
            )
            groups.append(group)
        group.tile_indices.append(index)
        group.starts.append(tile.row_tile * rows_per_ap)
    shape = tuple(node._input_shape)
    if any(group.wave for group in groups):
        size = int(np.prod(shape))
        ids = np.arange(1, size + 1, dtype=np.int64).reshape((1,) + shape)
        lowered = lower_batch_rows(ids, node.kernel_size, node.stride, node.padding)
        for group in groups:
            if not group.wave:
                continue
            gather = wave_gather_index(
                group.tile.programs,
                _stage_group(group, lowered, 1),
                group.rows,
                columns,
                technology=technology,
            )
            if gather is None:
                group.wave = False
                continue
            group.word = gather[0]
            group.index = [index.astype(np.int32) for index in gather[1]]
    min_width = min(widths_seen) if widths_seen else None
    proven = min_width is None or (
        min_signed_value(min_width) <= codes.qmin
        and codes.qmax <= max_signed_value(min_width)
    )
    return _NodePlan(node.planned.tiles, groups, shape, min_width, proven)


def _stage_group(
    group: _TileGroup, lowered: np.ndarray, num_images: int
) -> StagedWaveInputs:
    """Stage one group's operands as slices of the lowered tensor.

    Single-tile groups (the common shape of weight-resident plans) stage
    pure views.  Multi-tile groups gather all tiles' row windows in one
    fancy index per operand (one copy per operand name, never per instance).
    """
    tiles = len(group.tile_indices)
    rows = group.rows
    instances = num_images * tiles
    if tiles == 1:
        window = slice(group.starts[0], group.starts[0] + rows)
        values = [
            {name: lowered[:, channel, k, window] for name, k in names}
            for channel, names in group.bindings
        ]
        return StagedWaveInputs(instances, rows, values)
    rows_idx = group.rows_idx
    if rows_idx is None:
        rows_idx = group.rows_idx = np.asarray(group.starts, dtype=np.intp)[
            :, None
        ] + np.arange(rows, dtype=np.intp)
    values = [
        {
            name: lowered[:, channel, k, rows_idx].reshape(instances, rows)
            for name, k in names
        }
        for channel, names in group.bindings
    ]
    return StagedWaveInputs(instances, rows, values)


def _stack_results(
    group: _TileGroup, results: Sequence[InferenceTileResult]
) -> Tuple[_TileGroup, np.ndarray, np.ndarray, int]:
    """One group's per-instance results in a wave's form: ``(outputs,
    instances, rows)`` int64 outputs in (program order, names sorted) order,
    ``(instances, 8)`` counters and the exact checksum."""
    names = [
        (program, name)
        for program, program_names in enumerate(group.names_seq)
        for name in program_names
    ]
    outputs = np.array(
        [
            [result.outputs[program][name] for result in results]
            for program, name in names
        ],
        dtype=np.int64,
    ).reshape(len(names), len(results), group.rows)
    counters = counter_rows([result.stats for result in results])
    return group, outputs, counters, sum(result.checksum for result in results)


def _word_codes(codes: np.ndarray, word: np.dtype) -> np.ndarray:
    """A layer's ``(images, ...)`` codes as the zero-led ``(1 + features,
    images)`` array a :class:`WaveGather` reads, in ``word``: row 0 is the
    padding id's zero, and each code wraps to its two's complement."""
    images = codes.shape[0]
    flat = np.empty((1 + codes[0].size, images), dtype=word)
    flat[0] = 0
    flat[1:] = codes.reshape(images, -1).T
    return flat


def _codes_fit(codes: np.ndarray, width: Optional[int]) -> bool:
    """Whether every code fits a signed ``width``-bit wave load."""
    if width is None or codes.size == 0:
        return True
    return min_signed_value(width) <= int(codes.min()) and int(
        codes.max()
    ) <= max_signed_value(width)


@dataclass
class InferenceResult:
    """Logits plus the aggregated runtime counters of one inference run."""

    model: str
    logits: np.ndarray
    images: int
    execution: PlanExecution
    store: ActivationStore

    @property
    def predictions(self) -> np.ndarray:
        """Top-1 class per image."""
        return self.logits.argmax(axis=1)

    @property
    def checksum(self) -> int:
        """Order-independent checksum across every executed tile."""
        return self.execution.checksum

    @property
    def wall_time_s(self) -> float:
        """Host wall-clock of the whole run."""
        return self.execution.wall_time_s


class _Request:
    """The mutable state of one :meth:`BatchedInference.run` call.

    Bound to the running thread for the duration of the call, so requests
    overlapping on other threads never see each other's buffers.
    """

    __slots__ = ("store", "layers")

    def __init__(self, store: ActivationStore) -> None:
        self.store = store
        self.layers: Dict[str, LayerRunResult] = {}

    def record(self, result: LayerRunResult) -> None:
        """Merge a micro-batch's layer counters into the request aggregate."""
        existing = self.layers.get(result.name)
        if existing is None:
            self.layers[result.name] = result
            return
        existing.stats = existing.stats.merge(result.stats)
        existing.energy = existing.energy.merge(result.energy)
        existing.latency = existing.latency.merge(result.latency)
        existing.total_ops += result.total_ops
        existing.tiles_executed += result.tiles_executed
        existing.checksum += result.checksum
        existing.wall_time_s += result.wall_time_s


class BatchedInference:
    """Functional end-to-end inference driver over one leased AP pool.

    Args:
        model: a module tree built from :mod:`repro.nn.layers`.
        input_shape: un-batched input shape ``(C, H, W)`` (or ``(features,)``).
        bits: activation precision (the paper evaluates 4 and 8).
        signed: signedness of the quantized activations.
        accelerator: AP provider; sized automatically (growing banks) when
            omitted and the model needs more concurrent APs than the default.
        executor: executor (``serial``/``parallel``), class or
            instance, of the instances no wave takes.
        workers: worker count for pool executors.
        backend: functional AP execution backend; the accelerator's default
            when omitted.
        keep_activations: keep per-layer quantized codes and integer outputs
            in the activation store (debugging/tests).
        name: plan name used in reports.
        compiled: pre-compiled model (``emit_programs=True``); compiled here
            when omitted.  A :class:`repro.session.Session` passes its own so
            compilation happens exactly once per session.
        plan: pre-built execution plan for ``compiled`` on ``accelerator``
            (both must be given together); built here when omitted.
    """

    def __init__(
        self,
        model: Module,
        input_shape: Sequence[int],
        bits: int = 4,
        signed: bool = False,
        accelerator: Optional[Accelerator] = None,
        executor: ExecutorSpec = "serial",
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        keep_activations: bool = False,
        name: str = "model",
        compiled=None,
        plan=None,
    ) -> None:
        input_shape = tuple(input_shape)
        if plan is not None and (compiled is None or accelerator is None):
            raise ModelDefinitionError(
                "a pre-built plan needs its compiled model and accelerator"
            )
        if compiled is None:
            specs = model_layer_specs(model, input_shape)
            if not specs:
                raise ModelDefinitionError("model has no weight layers to execute")
            compiled = compile_model(
                specs,
                CompilerConfig(activation_bits=bits, signed_activations=signed),
                name=name,
                emit_programs=True,
            )
        if plan is None:
            if accelerator is None:
                accelerator = (
                    Accelerator() if backend is None else Accelerator(backend=backend)
                )
                try:
                    plan = build_execution_plan(compiled, accelerator=accelerator)
                except CapacityError:
                    needed = max(
                        layer.mapping.row_tiles * layer.mapping.channel_groups
                        for layer in compiled.layers
                    )
                    accelerator = Accelerator(
                        config=accelerator.config.with_total_aps(needed),
                        backend=accelerator.backend,
                    )
                    plan = build_execution_plan(compiled, accelerator=accelerator)
            else:
                plan = build_execution_plan(compiled, accelerator=accelerator)
        self.accelerator = accelerator
        self.plan = plan
        self.executor = resolve_executor(executor, workers=workers)
        self.backend = backend if backend is not None else accelerator.backend
        self.graph = DataflowGraph.build(model, input_shape, compiled, plan)
        self._store_settings = dict(
            activation_bits=bits, signed=signed, keep_tensors=keep_activations
        )
        self._columns = plan.lease_columns
        self._tls = threading.local()
        self._patch_lock = threading.Lock()
        self._patch_refs = 0
        self._patch_cm = None
        #: Pooled APs hold one request at a time: overlapping requests take
        #: turns leasing them for their per-instance dispatches.
        self._lease_lock = threading.Lock()
        self._closed = False
        #: Monotonic per-engine request ids (span attribute only; results
        #: carry no id, so numbering never affects the data path).
        self._request_ids = itertools.count()
        self._wave_capable = bool(
            getattr(resolve_backend(self.backend), "supports_program_wave", False)
        )
        #: Per-layer host dataflow plans (tile parses + staging groups); for
        #: wave-capable backends this also pre-lowers every program to its
        #: wave form and plans its operand gather, so no request pays the
        #: lowering or staging cost.
        quantizer = QuantizationConfig(bits=bits, signed=signed)
        with telemetry.span(
            "host.plan",
            category="host",
            layers=len(self.graph.nodes),
            wave=self._wave_capable,
        ):
            self._node_plans = {
                node.name: _plan_node(
                    node,
                    self._columns,
                    self.accelerator.config.technology,
                    self._wave_capable,
                    quantizer,
                )
                for node in self.graph.nodes
            }

    # ------------------------------------------------------------------
    # Forward-hook plumbing
    # ------------------------------------------------------------------
    def _dispatch_hook(self, name: str, module: Module, x: np.ndarray):
        """Quantize a layer's input, execute its tiles, dequantize the output.

        The model is patched once (refcounted) for any number of concurrent
        requests; each routes here through the request bound to its own
        thread.
        """
        request = getattr(self._tls, "request", None)
        if request is None:
            raise SimulationError(
                f"weight layer {name!r} executed outside an inference run "
                f"(no request bound to this thread)"
            )
        node = self.graph.node(name)
        codes, steps = request.store.quantize_input(name, x)
        y_int = self._execute_node(request, node, codes)
        request.store.record_output(name, y_int)
        y = dequantize_batch(y_int, steps, node.weight_scale)
        return y.reshape((x.shape[0],) + node.output_spatial(y_int.shape[-1]))

    @contextmanager
    def _patched(self):
        """Reference-counted weight-layer patch (concurrency-safe).

        ``patch_weight_layers`` mutates the shared module tree; overlapping
        requests need it active at once.  The first entrant applies the
        patch, the last one restores the original forwards.
        """
        with self._patch_lock:
            if self._patch_refs == 0:
                self._patch_cm = patch_weight_layers(
                    self.graph.model, self.graph.input_shape, self._dispatch_hook
                )
                self._patch_cm.__enter__()
            self._patch_refs += 1
        try:
            yield
        finally:
            with self._patch_lock:
                self._patch_refs -= 1
                if self._patch_refs == 0:
                    manager, self._patch_cm = self._patch_cm, None
                    manager.__exit__(None, None, None)

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray, batch: Optional[int] = None) -> InferenceResult:
        """Run a batch of images through the network on the AP runtime.

        Thread-safe: overlapping calls each run on their own request state.

        Args:
            images: batched ``(N,) + input_shape`` (or one un-batched image).
            batch: optional micro-batch size; the batch is processed in
                chunks of this many images (bounding peak activation memory).
                Per-image quantization makes chunked and unchunked execution
                byte-identical.
        """
        if batch is not None and batch < 1:
            raise ModelDefinitionError(f"batch must be >= 1, got {batch}")
        request_id = next(self._request_ids)
        started = time.perf_counter()
        x, _ = normalize_images(images, self.graph.input_shape)
        request = _Request(ActivationStore(**self._store_settings))
        chunks = (
            [x]
            if batch is None
            else [x[start : start + batch] for start in range(0, x.shape[0], batch)]
        )
        with self._patched():
            self._tls.request = request
            try:
                logits = np.concatenate(
                    [self.graph.model(chunk) for chunk in chunks], axis=0
                )
            finally:
                self._tls.request = None
        finished = time.perf_counter()
        telemetry.complete(
            "session.request",
            started,
            finished,
            category="session",
            request_id=request_id,
            images=int(x.shape[0]),
        )
        execution = PlanExecution(
            name=self.plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
            layers=[request.layers[node.name] for node in self.graph.nodes],
            wall_time_s=finished - started,
        )
        return InferenceResult(
            model=self.plan.name,
            logits=logits,
            images=x.shape[0],
            execution=execution,
            store=request.store,
        )

    # ------------------------------------------------------------------
    def _execute_node(
        self, request: _Request, node: DataflowNode, codes: np.ndarray
    ) -> np.ndarray:
        """Run every (image, tile) of one layer and reduce the partial sums.

        Each group's wave comes back as one
        :class:`~repro.ap.backends.batched.WaveBatch`; a group no wave takes
        runs instance by instance on the executor, and its results are
        stacked into the same arrays (:func:`_stack_results`).  Either way
        the outputs fold and add into the layer accumulator once per tile
        position, for all images at once, and the counters fill the layer's
        ``(images, tiles, 8)`` counter matrix.
        """
        planned = node.planned
        mapping = node.mapping
        technology = self.accelerator.config.technology
        num_images = codes.shape[0]
        plan = self._node_plans[node.name]
        num_tiles = len(plan.tiles)

        waves = (
            self._wave_capable
            and codes.shape[1:] == plan.shape
            and (plan.proven or _codes_fit(codes, plan.min_width))
        )
        #: The codes in each word dtype a wave group reads them in.
        words: Dict[np.dtype, np.ndarray] = {}
        #: Lowered on first use, by the first group no wave takes.
        lowered: Optional[np.ndarray] = None
        #: ``(group, (outputs, instances, rows) outputs, (instances, 8)
        #: counters, checksum)`` per group; a ``None`` checksum is the
        #: int64 total of the folded outputs.
        results: List[Tuple[_TileGroup, np.ndarray, np.ndarray, Optional[int]]] = []
        payloads = []
        #: Groups no wave takes, in payload order.
        fallbacks: List[_TileGroup] = []
        started = time.perf_counter()
        with telemetry.span(
            "device.layer",
            category="device",
            track=f"ap-group/{planned.layer_index}",
            layer=node.name,
            images=num_images,
            executor=self.executor.name,
            backend=str(self.backend),
        ):
            for group in plan.groups:
                tiles = len(group.tile_indices)
                batch = None
                if waves and group.wave:
                    flat = words.get(group.word)
                    if flat is None:
                        flat = words[group.word] = _word_codes(codes, group.word)
                    batch = execute_program_wave(
                        group.tile.programs,
                        WaveGather(flat, group.index, tiles, group.rows),
                        rows=group.rows,
                        columns=self._columns,
                        technology=technology,
                    )
                if batch is not None:
                    results.append(
                        (
                            group,
                            batch.outputs,
                            batch.counters(),
                            None if batch.total_is_checksum else batch.checksum(),
                        )
                    )
                    continue
                if lowered is None:
                    lowered = lower_batch_rows(
                        codes, node.kernel_size, node.stride, node.padding
                    )
                with telemetry.span(
                    "host.stage", category="host", layer=node.name, images=num_images
                ):
                    staged = _stage_group(group, lowered, num_images)
                fallbacks.append(group)
                for instance in range(staged.instances):
                    tile = plan.tiles[group.tile_indices[instance % tiles]]
                    inputs_list = [
                        {name: values[instance] for name, values in operands.items()}
                        for operands in staged.values
                    ]
                    payloads.append(
                        (
                            tile,
                            instance // tiles,
                            self._columns,
                            self.backend,
                            technology,
                            inputs_list,
                        )
                    )
            if payloads:
                with self._lease_lock:
                    lease = make_lease(self.accelerator, self._columns, self.backend)
                    dispatched = self.executor.map_layer(
                        _inference_tile_worker, payloads, lease=lease
                    )
                begin = 0
                for group in fallbacks:
                    end = begin + num_images * len(group.tile_indices)
                    results.append(_stack_results(group, dispatched[begin:end]))
                    begin = end
        wall = time.perf_counter() - started
        # Residency accounting, one dispatch per image of every tile: warm
        # on a deployed (pinned) plan, cold lease + reprogram otherwise.
        for tile in plan.tiles:
            self.accelerator.account_tile_dispatch(tile, num_images)

        # Order-independent reduction of the real outputs: exact integer
        # partial sums accumulated per (image, output channel, position).
        # int64 addition commutes exactly, so folding the program axis first
        # and adding whole groups matches per-value adds.
        accumulator = np.zeros(
            (num_images, mapping.out_channels, mapping.output_positions), np.int64
        )
        counters = np.zeros((num_images, num_tiles, len(COUNTER_FIELDS)), np.int64)
        checksum = 0
        for group, outputs, group_counters, group_checksum in results:
            tiles = len(group.tile_indices)
            counters[:, group.tile_indices] = group_counters.reshape(
                num_images, tiles, -1
            )
            if group.fold is None:
                continue
            folded = group.fold(outputs)
            checksum += int(folded.sum()) if group_checksum is None else group_checksum
            folded = folded.reshape(-1, num_images, tiles, group.rows)
            for position, start in enumerate(group.starts):
                window = slice(start, start + group.rows)
                accumulator[:, group.fold.targets, window] += folded[
                    :, :, position
                ].transpose(1, 0, 2)

        movement = charge_adder_tree_movement(
            self.accelerator, planned, repeats=num_images
        )
        predecessor = self.graph.predecessor(node)
        activation_bits = float(codes.size * request.store.activation_bits)
        movement = movement.merge(
            self.accelerator.charge_activation_traffic(
                activation_bits,
                src=predecessor.planned.tiles[0].address if predecessor else None,
                dst=planned.tiles[0].address if planned.tiles else None,
            )
        )
        # Counter aggregation shared with the synthetic schedulers; each
        # image is its own latency stream (images sharing the pool
        # serialise, tiles of one round within an image overlap).
        request.record(
            aggregate_layer_run(
                planned,
                counters,
                self.accelerator,
                movement,
                repeats=num_images,
                checksum=checksum,
                wall_time_s=wall,
            )
        )
        return accumulator

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor's pooled workers and the leased AP pool.

        Idempotent and exception-safe: a second call is a no-op, and the AP
        pool is released even if closing the executor raises.
        """
        if self._closed:
            return
        self._closed = True
        try:
            # A pool's shutdown waits for its running tasks.
            self.executor.close()
        finally:
            self.accelerator.release_aps()

    def __enter__(self) -> "BatchedInference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
