"""Batched end-to-end inference on the execution-plan runtime.

:class:`BatchedInference` runs N images through one compiled model on one
leased AP pool: every weight layer's *real* quantized activations are lowered
to AP row operands (:mod:`repro.inference.activations`), executed as the
layer's :class:`~repro.runtime.plan.TileProgram` streams on the runtime's
pluggable executors, and reduced into exact integer partial sums whose order
independence makes ``serial``, ``parallel`` and ``thread`` execution - and
the ``reference`` and ``vectorized`` backends - byte-identical.  The host
executes the model's interstitial operators (batch norm, ReLU, pooling,
residual adds) between layers, so the logits of the AP dataflow must match
the pure-NumPy quantized reference
(:func:`repro.inference.reference.quantized_reference_forward`) exactly.

Work granularity is ``(image, tile program)``, dispatched under one of two
disciplines:

* **layer-synchronous** (``pipeline=False``): a batch fans out every image's
  tiles of the current layer to the executor in one order-preserving map,
  then a barrier, then the next layer - the host does all inter-layer work
  serially while the pool idles.
* **pipelined** (``pipeline=True``): every image runs its own forward on a
  driver thread and each ``(image, layer, tile)`` work item dispatches the
  moment its input activations exist (no barriers anywhere) - layer L+1 of
  image i-1 streams through its own weight-resident AP group while layer L
  of image i is still in flight, and the host interstitial operators overlap
  with AP execution.  Per-AP-group occupancy is tracked by an
  :class:`~repro.runtime.pipeline.InFlightTracker`.

Per-image activation streams are quantized with per-image calibration and
every reduction is rebuilt in (image, tile) order at aggregation time, so
batched, micro-batched, one-by-one, layer-synchronous and pipelined
execution all produce byte-identical logits and counters.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.ap.backends import resolve_backend
from repro.ap.backends.batched import (
    StagedWaveInputs,
    execute_program_wave,
    wave_staging_plan,
)
from repro.ap.core import AssociativeProcessor
from repro.arch.accelerator import Accelerator
from repro.cam.stats import CAMStats
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import (
    CapacityError,
    ConfigurationError,
    ModelDefinitionError,
    SimulationError,
)
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
from repro.nn.stats import model_layer_specs
from repro.runtime.executors import ExecutorSpec, make_lease, resolve_executor
from repro.runtime.pipeline import InFlightTracker
from repro.runtime.plan import build_execution_plan
from repro.runtime.scheduler import (
    LayerRunResult,
    PlanExecution,
    aggregate_layer_run,
    charge_adder_tree_movement,
)
from repro.utils.bitops import max_signed_value, min_signed_value

#: ``lower_batch_planes`` is no longer called here; it stays exported because
#: ``perfbench/tracing.py`` times every lowering function under this module's
#: names.
__all__ = [
    "BatchedInference",
    "InferenceResult",
    "InferenceTileResult",
    "lower_batch_planes",
    "run_inference",
]

#: ``REPRO_HOST_DATAFLOW`` selects the layer-synchronous host staging
#: discipline: ``wave`` (default) stages each layer's operands as views of
#: one lowered tensor and calls the batched wave directly; ``per-image``
#: forces the legacy per-(image, tile) payload build (the benchmark's A/B
#: baseline).  Results are byte-identical either way.
_HOST_DATAFLOW_ENV = "REPRO_HOST_DATAFLOW"


@dataclass(frozen=True)
class InferenceTileResult:
    """Outcome of one (image, tile program) work item."""

    image_index: int
    address: tuple
    stats: CAMStats
    #: One ``{output name: integer partial-sum vector}`` dict per slice
    #: program of the tile (real data, unlike the synthetic-path checksums).
    outputs: Tuple[Dict[str, np.ndarray], ...]
    checksum: int
    duration_s: float
    #: Optional bulk view of ``outputs``: all partial-sum vectors stacked as
    #: one ``(total outputs, rows)`` matrix in (program order, sorted-name)
    #: order.  Provided by the wave path so the layer reduction can add the
    #: whole payload in one indexed operation instead of per-name loops.
    stacked_outputs: Optional[np.ndarray] = None


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


def _inference_layer_wave(payloads) -> Optional[List[InferenceTileResult]]:
    """Execute one layer's (image, tile) payloads as mega-kernel waves.

    The wave counterpart of mapping :func:`_inference_tile_worker` over the
    payloads: instances sharing one tile's compiled slice programs (every
    image times every row tile of a channel group) are stacked and handed to
    :func:`~repro.ap.backends.batched.execute_program_wave` in one call.
    Returns ``None`` - so callers fall back to per-payload dispatch - when
    the selected backend has no wave support or any group's programs or
    inputs need the per-instance path (where the ordinary backends raise
    their proper errors).  Results are byte-identical to per-tile execution:
    same outputs, checksums and :class:`~repro.cam.stats.CAMStats`.
    """
    if not payloads:
        return []
    try:
        backend_class = resolve_backend(payloads[0][3])
    except ConfigurationError:
        return None
    if not getattr(backend_class, "supports_program_wave", False):
        return None
    groups: Dict[tuple, List[int]] = {}
    for index, payload in enumerate(payloads):
        tile = payload[0]
        key = (tuple(id(program) for program in tile.programs), tile.rows)
        groups.setdefault(key, []).append(index)
    results: List[Optional[InferenceTileResult]] = [None] * len(payloads)
    for indices in groups.values():
        tile, _, columns, _, technology, _ = payloads[indices[0]]
        start = time.perf_counter()
        wave = execute_program_wave(
            tile.programs,
            [payloads[index][5] for index in indices],
            rows=tile.rows,
            columns=columns,
            technology=technology,
        )
        if wave is None:
            return None
        # The wave executes all instances at once; attribute the group's
        # wall-clock evenly (duration_s is informational, never aggregated).
        duration = (time.perf_counter() - start) / len(indices)
        for index, (stats, outputs_list, checksum, stacked) in zip(indices, wave):
            payload = payloads[index]
            results[index] = InferenceTileResult(
                image_index=payload[1],
                address=tuple(payload[0].address),
                stats=stats,
                outputs=tuple(outputs_list),
                checksum=checksum,
                duration_s=duration,
                stacked_outputs=stacked,
            )
    return results


class _WaveGroup:
    """One layer's tiles that share compiled programs, rows and channels.

    The wave unit of the staged host path: all ``(image, tile)`` instances of
    the group execute as one :func:`execute_program_wave` call, with operands
    staged as slices of the layer's one lowered tensor.  Instance order is
    image-major, tile-minor - exactly the payload order of the legacy path,
    so results scatter back by ``image * tiles + tile_index``.
    """

    __slots__ = ("tile", "rows", "tile_indices", "starts", "bindings", "rows_idx")

    def __init__(self, tile, rows: int, bindings) -> None:
        self.tile = tile
        self.rows = rows
        self.bindings = bindings
        self.tile_indices: List[int] = []
        self.starts: List[int] = []
        #: Lazily built ``(tiles, rows)`` row-gather index (multi-tile groups).
        self.rows_idx: Optional[np.ndarray] = None


class _NodePlan:
    """Per-layer host dataflow plan, built once per engine.

    ``tile_specs`` is the image-invariant parse of every tile (row slice,
    input bindings, static reduction layout) both host paths share.
    ``groups`` is the wave grouping of those tiles - ``None`` when the
    backend has no wave support or any program declines wave lowering, in
    which case the layer always takes the legacy per-payload path.
    ``min_width`` is the narrowest load width - codes outside its signed
    range cannot be staged (the legacy path then raises the proper range
    errors).
    """

    __slots__ = ("tile_specs", "groups", "min_width")

    def __init__(self, tile_specs, groups, min_width) -> None:
        self.tile_specs = tile_specs
        self.groups = groups
        self.min_width = min_width


def _plan_node(node, columns: int, technology, wave_capable: bool) -> _NodePlan:
    """Parse one layer's tiles and (when possible) its wave grouping.

    Calling :func:`wave_staging_plan` here - at engine construction - also
    pre-lowers every program for the wave geometry, moving the whole
    compile-to-wave cost out of the first request's critical path.
    """
    rows_per_ap = node.mapping.rows_per_ap
    tile_specs = []
    for tile in node.planned.tiles:
        start = tile.row_tile * rows_per_ap
        row_slice = slice(start, start + tile.rows)
        bindings = [
            (channel, [(name, int(name[1:])) for name in program.input_columns])
            for channel, program in zip(tile.channel_indices, tile.programs)
        ]
        # Static reduction layout: each program emits its outputs in
        # sorted-name order, so the output channels per payload are known
        # before execution and the partial sums can be added in bulk.
        names_seq = [
            tuple(sorted(program.output_columns)) for program in tile.programs
        ]
        channels = np.array(
            [int(name[1:]) for names in names_seq for name in names],
            dtype=np.intp,
        )
        uniform = len(set(names_seq)) <= 1
        tile_specs.append((tile, row_slice, bindings, names_seq, channels, uniform))

    if not wave_capable:
        return _NodePlan(tile_specs, None, None)
    groups: Optional[List[_WaveGroup]] = []
    by_key: Dict[tuple, _WaveGroup] = {}
    widths_seen: set = set()
    for index, (tile, row_slice, bindings, _, _, _) in enumerate(tile_specs):
        key = (
            tuple(id(program) for program in tile.programs),
            tile.rows,
            tuple(tile.channel_indices),
        )
        group = by_key.get(key)
        if group is None:
            load_widths = wave_staging_plan(
                tile.programs, columns, technology=technology
            )
            if load_widths is None:
                groups = None
                break
            for widths in load_widths:
                widths_seen.update(widths.values())
            group = by_key[key] = _WaveGroup(tile, tile.rows, bindings)
            groups.append(group)
        group.tile_indices.append(index)
        group.starts.append(row_slice.start)
    min_width = min(widths_seen) if groups is not None and widths_seen else None
    return _NodePlan(tile_specs, groups, min_width)


def _stage_group(
    group: _WaveGroup, lowered: np.ndarray, num_images: int
) -> StagedWaveInputs:
    """Stage one wave group's operands as slices of the lowered tensor.

    Single-tile groups (the common shape of weight-resident plans) stage
    pure views - zero copies between the layer's one lowering pass and the
    CAM load.  Multi-tile groups gather all tiles' row windows in one fancy
    index per operand (one copy per operand name, never per payload).
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


@dataclass
class _LayerCollector:
    """Thread-safe per-layer accumulation of one pipelined request.

    Driver threads deposit each ``(image, layer)`` dispatch here the moment
    it completes; everything is keyed by image index so the finalization can
    rebuild the exact (image-major, tile-minor) order of the layer-
    synchronous engine, making the aggregated counters byte-identical no
    matter which order the pipeline finished in.
    """

    #: image -> [(tile, stats), ...] in tile order.
    tiles: Dict[int, List] = field(default_factory=dict)
    #: image -> checksum of the image's tile outputs.
    checksums: Dict[int, int] = field(default_factory=dict)
    #: image -> activation bits entering the layer.
    input_bits: Dict[int, int] = field(default_factory=dict)
    #: Host wall-clock of the layer's dispatches (sum over images).
    wall_time_s: float = 0.0


class _PipelinedRequest:
    """Mutable state of one in-flight pipelined inference request."""

    def __init__(self, store: ActivationStore, request_id: int = 0) -> None:
        self.store = store
        self.request_id = request_id
        self.layers: Dict[str, _LayerCollector] = {}
        self.lock = threading.Lock()

    def collector(self, name: str) -> _LayerCollector:
        with self.lock:
            collector = self.layers.get(name)
            if collector is None:
                collector = self.layers[name] = _LayerCollector()
            return collector

    def record(
        self,
        name: str,
        image: int,
        tiles: List,
        checksum: int,
        input_bits: int,
        wall_time_s: float,
    ) -> None:
        collector = self.collector(name)
        with self.lock:
            collector.tiles[image] = tiles
            collector.checksums[image] = checksum
            collector.input_bits[image] = input_bits
            collector.wall_time_s += wall_time_s


class BatchedInference:
    """Functional end-to-end inference driver over one leased AP pool.

    Args:
        model: a module tree built from :mod:`repro.nn.layers`.
        input_shape: un-batched input shape ``(C, H, W)`` (or ``(features,)``).
        bits: activation precision (the paper evaluates 4 and 8).
        signed: signedness of the quantized activations.
        accelerator: AP provider; sized automatically (growing banks) when
            omitted and the model needs more concurrent APs than the default.
        executor: tile executor (``serial``/``parallel``/``thread``), class or
            instance.
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
        pipeline: default dispatch discipline of :meth:`run`: ``False`` is
            the layer-synchronous engine (all images' tiles of layer L fan
            out, then a barrier); ``True`` is the dependency-driven pipeline
            (each image advances to layer L+1 the moment its own layer L
            completes, so different layers' resident AP groups work
            concurrently).  Logits and aggregated counters are
            byte-identical across the two.
        pipeline_depth: maximum images in flight per pipelined request (the
            double-buffering depth bounding peak activation memory);
            ``min(weight layers, 8)`` when omitted.
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
        pipeline: bool = False,
        pipeline_depth: Optional[int] = None,
    ) -> None:
        if pipeline_depth is not None and pipeline_depth < 1:
            raise ModelDefinitionError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
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
        self.graph = DataflowGraph.build(
            model,
            input_shape,
            compiled,
            plan,
            store=ActivationStore(
                activation_bits=bits, signed=signed, keep_tensors=keep_activations
            ),
        )
        self._columns = plan.lease_columns
        self._layer_results: Dict[str, LayerRunResult] = {}
        self.pipeline = bool(pipeline)
        self.pipeline_depth = pipeline_depth
        #: Per-AP-group (resident layer) occupancy of pipelined dispatches.
        self.tracker = InFlightTracker()
        self._tls = threading.local()
        self._patch_lock = threading.Lock()
        self._patch_refs = 0
        self._patch_cm = None
        self._closed = False
        #: Monotonic per-engine request ids (span attribute only; results
        #: carry no id, so numbering never affects the data path).
        self._request_ids = itertools.count()
        self._host_dataflow = (
            os.environ.get(_HOST_DATAFLOW_ENV, "wave").strip().lower() or "wave"
        )
        if self._host_dataflow not in ("wave", "per-image"):
            raise ConfigurationError(
                f"{_HOST_DATAFLOW_ENV}={self._host_dataflow!r} is not a host "
                f"dataflow mode (choose 'wave' or 'per-image')"
            )
        wave_capable = False
        if self._host_dataflow == "wave":
            try:
                wave_capable = bool(
                    getattr(
                        resolve_backend(self.backend), "supports_program_wave", False
                    )
                )
            except ConfigurationError:
                # Invalid backends keep their error site: the legacy dispatch
                # path raises when it builds the first AP.
                wave_capable = False
        #: Per-layer host dataflow plans (tile parses + wave groupings); for
        #: wave-capable backends this also pre-lowers every program to its
        #: wave form, so no request pays the lowering cost.
        with telemetry.span(
            "host.plan",
            category="host",
            layers=len(self.graph.nodes),
            wave=wave_capable,
        ):
            self._node_plans = {
                node.name: _plan_node(
                    node,
                    self._columns,
                    self.accelerator.config.technology,
                    wave_capable,
                )
                for node in self.graph.nodes
            }

    # ------------------------------------------------------------------
    # Forward-hook plumbing shared by both dispatch disciplines
    # ------------------------------------------------------------------
    def _dispatch_hook(self, name: str, module: Module, value: np.ndarray):
        """Route a patched weight layer to the calling thread's active hook.

        The model is patched *once* (refcounted) for any number of
        concurrent forwards; each driver thread installs its own per-image
        hook in thread-local storage, so overlapping images - and
        overlapping requests - share one patched model without contending.
        """
        hook = getattr(self._tls, "hook", None)
        if hook is None:
            raise SimulationError(
                f"weight layer {name!r} executed outside an inference run "
                f"(no layer hook installed on this thread)"
            )
        return hook(self.graph.node(name), value)

    @contextmanager
    def _patched(self):
        """Reference-counted weight-layer patch (concurrency-safe).

        ``patch_weight_layers`` mutates the shared module tree; with
        overlapping pipelined requests several threads need it active at
        once.  The first entrant applies the patch, the last one restores
        the original forwards - strictly nested enter/exit per thread, so
        the LIFO restore of the underlying context manager holds.
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

    @contextmanager
    def _thread_hook(self, hook):
        previous = getattr(self._tls, "hook", None)
        self._tls.hook = hook
        try:
            yield
        finally:
            self._tls.hook = previous

    # ------------------------------------------------------------------
    def run(
        self,
        images: np.ndarray,
        batch: Optional[int] = None,
        pipeline: Optional[bool] = None,
    ) -> InferenceResult:
        """Run a batch of images through the network on the AP runtime.

        Args:
            images: batched ``(N,) + input_shape`` (or one un-batched image).
            batch: optional micro-batch size; the batch is processed in
                chunks of this many images (bounding peak activation memory).
                Per-image quantization makes chunked and unchunked execution
                byte-identical.  In pipelined mode it caps the images in
                flight instead (same memory bound, no barrier).
            pipeline: override the engine's default dispatch discipline for
                this request (see the constructor's ``pipeline`` argument).
        """
        pipelined = self.pipeline if pipeline is None else pipeline
        if batch is not None and batch < 1:
            raise ModelDefinitionError(f"batch must be >= 1, got {batch}")
        if pipelined:
            return self._run_pipelined(images, batch=batch)
        request_id = next(self._request_ids)
        started = time.perf_counter()
        x, _ = normalize_images(images, self.graph.input_shape)
        self._layer_results = {}
        # Every run gets a fresh store so previously returned results keep
        # their own buffers (the graph's store is the *current* run's).
        previous = self.graph.store
        self.graph.store = ActivationStore(
            activation_bits=previous.activation_bits,
            signed=previous.signed,
            keep_tensors=previous.keep_tensors,
        )
        chunks = (
            [x]
            if batch is None
            else [x[start : start + batch] for start in range(0, x.shape[0], batch)]
        )
        logits = np.concatenate([self._forward(chunk) for chunk in chunks], axis=0)
        finished = time.perf_counter()
        telemetry.complete(
            "session.request",
            started,
            finished,
            category="session",
            request_id=request_id,
            images=int(x.shape[0]),
            mode="layer-sync",
        )
        execution = PlanExecution(
            name=self.plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
            layers=[self._layer_results[node.name] for node in self.graph.nodes],
            wall_time_s=finished - started,
        )
        return InferenceResult(
            model=self.plan.name,
            logits=logits,
            images=x.shape[0],
            execution=execution,
            store=self.graph.store,
        )

    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray) -> np.ndarray:
        """One micro-batch through the model with AP-executed weight layers."""
        with self._patched(), self._thread_hook(self._layer_hook):
            return self.graph.model(x)

    def _layer_hook(self, node: DataflowNode, x: np.ndarray) -> np.ndarray:
        """Quantize a layer's input, execute its tiles, dequantize the output."""
        codes, steps = self.graph.store.quantize_input(node.name, x)
        y_int = self._execute_node(node, codes)
        self.graph.store.record_output(node.name, y_int)
        y = dequantize_batch(y_int, steps, node.weight_scale)
        return y.reshape((x.shape[0],) + node.output_spatial(y_int.shape[-1]))

    # ------------------------------------------------------------------
    def _execute_node(self, node: DataflowNode, codes: np.ndarray) -> np.ndarray:
        """Run every (image, tile) of one layer and reduce the partial sums."""
        planned = node.planned
        mapping = node.mapping
        technology = self.accelerator.config.technology
        num_images = codes.shape[0]
        positions = mapping.output_positions
        plan = self._node_plans[node.name]
        tile_specs = plan.tile_specs

        staged = None
        if plan.groups is not None:
            staged = self._execute_node_wave(node, plan, codes, num_images)
        if staged is not None:
            results, wall = staged
            # Residency accounting per (image, tile) dispatch, deferred until
            # every wave of the layer succeeded (a declined wave falls back
            # to the legacy path below, which charges the dispatches itself -
            # deferral keeps the charge exactly-once either way).
            for _ in range(num_images):
                for spec in tile_specs:
                    self.accelerator.account_tile_dispatch(spec[0])
            pairs = [
                (spec[0], image) for image in range(num_images) for spec in tile_specs
            ]
        else:
            results, pairs, wall = self._execute_node_payloads(
                node, plan, codes, num_images, technology
            )

        # Order-independent reduction of the real outputs: exact integer
        # partial sums accumulated per (image, output channel, position).
        accumulator = np.zeros((num_images, mapping.out_channels, positions), np.int64)
        index = 0
        for image in range(num_images):
            for _, row_slice, _, names_seq, channels, uniform in tile_specs:
                result = results[index]
                index += 1
                if channels.size == 0:
                    continue
                stacked = result.stacked_outputs
                if stacked is None:
                    stacked = np.stack(
                        [
                            outputs[name]
                            for outputs, names in zip(result.outputs, names_seq)
                            for name in names
                        ]
                    )
                target = accumulator[image, :, row_slice]
                if uniform:
                    # All programs of the tile emit the same output channels
                    # (one input-channel slice each): fold the program axis
                    # first, then one indexed add per payload.  int64 addition
                    # commutes exactly, so the result matches per-value adds.
                    if len(names_seq) > 1:
                        summed = stacked.reshape(
                            len(names_seq), -1, stacked.shape[-1]
                        ).sum(axis=0)
                    else:
                        summed = stacked
                    target[channels[: len(names_seq[0])]] += summed
                else:
                    np.add.at(target, channels, stacked)

        movement = charge_adder_tree_movement(
            self.accelerator, planned, repeats=num_images
        )
        predecessor = self.graph.predecessor(node)
        activation_bits = float(codes.size * self.graph.store.activation_bits)
        movement = movement.merge(
            self.accelerator.charge_activation_traffic(
                activation_bits,
                src=predecessor.planned.tiles[0].address if predecessor else None,
                dst=planned.tiles[0].address if planned.tiles else None,
            )
        )
        # Counter aggregation shared with the synthetic Scheduler; each image
        # is its own latency stream (images sharing the pool serialise, tiles
        # of one round within an image overlap).
        layer_result = aggregate_layer_run(
            planned,
            [
                (tile, result.stats, image)
                for (tile, image), result in zip(pairs, results)
            ],
            self.accelerator,
            movement,
            repeats=num_images,
            checksum=sum(result.checksum for result in results),
            wall_time_s=wall,
        )
        self._record_layer(layer_result)
        return accumulator

    def _execute_node_wave(
        self, node: DataflowNode, plan: _NodePlan, codes: np.ndarray, num_images: int
    ) -> Optional[Tuple[List[InferenceTileResult], float]]:
        """Wave-native host path of one layer (staged operands, direct waves).

        The whole layer is lowered once to integer rows and each wave
        group's ``(image, tile)`` instances slice views of that one tensor
        (:func:`_stage_group`); the wave packs them into nanowire words as
        it loads.  Returns results in payload order (image-major,
        tile-minor), or ``None`` to route the layer through the legacy
        per-payload path (non-stageable codes or a declined wave), which
        reproduces the pre-fusion behavior exactly.
        """
        if num_images == 0 or not plan.tile_specs:
            return [], 0.0
        if plan.min_width is not None:
            # Out-of-range codes cannot be staged; the legacy path raises
            # the proper errors for them, exactly as before the fusion.
            low = int(codes.min())
            high = int(codes.max())
            if low < min_signed_value(plan.min_width) or high > max_signed_value(
                plan.min_width
            ):
                return None
        technology = self.accelerator.config.technology
        lowered = lower_batch_rows(codes, node.kernel_size, node.stride, node.padding)
        with telemetry.span(
            "host.stage",
            category="host",
            layer=node.name,
            images=num_images,
            mode="wave",
        ):
            staged_groups = [
                _stage_group(group, lowered, num_images) for group in plan.groups
            ]
        num_tiles = len(plan.tile_specs)
        results: List[Optional[InferenceTileResult]] = [None] * (
            num_images * num_tiles
        )
        started = time.perf_counter()
        with telemetry.span(
            "device.layer",
            category="device",
            track=f"ap-group/{node.planned.layer_index}",
            layer=node.name,
            images=num_images,
            executor=self.executor.name,
            backend=str(self.backend),
        ):
            for group, staged in zip(plan.groups, staged_groups):
                group_start = time.perf_counter()
                wave = execute_program_wave(
                    group.tile.programs,
                    staged,
                    rows=group.rows,
                    columns=self._columns,
                    technology=technology,
                )
                if wave is None:
                    return None
                tiles = len(group.tile_indices)
                duration = (time.perf_counter() - group_start) / max(len(wave), 1)
                for instance, (stats, outputs_list, checksum, stacked) in enumerate(
                    wave
                ):
                    image, tile_pos = divmod(instance, tiles)
                    tile_index = group.tile_indices[tile_pos]
                    results[image * num_tiles + tile_index] = InferenceTileResult(
                        image_index=image,
                        address=tuple(plan.tile_specs[tile_index][0].address),
                        stats=stats,
                        outputs=tuple(outputs_list),
                        checksum=checksum,
                        duration_s=duration,
                        stacked_outputs=stacked,
                    )
        return results, time.perf_counter() - started

    def _execute_node_payloads(
        self,
        node: DataflowNode,
        plan: _NodePlan,
        codes: np.ndarray,
        num_images: int,
        technology,
    ) -> Tuple[List[InferenceTileResult], List[tuple], float]:
        """Legacy per-(image, tile) payload path of one layer.

        One strided im2col for the whole batch, then one payload dict per
        (image, tile) handed to the executor (whose ``map_layer`` still
        prefers the wave when the backend supports it).  Also the benchmark
        baseline behind ``REPRO_HOST_DATAFLOW=per-image``.
        """
        columns_batch = lower_batch_rows(
            codes, node.kernel_size, node.stride, node.padding
        )
        payloads = []
        with telemetry.span(
            "host.stage",
            category="host",
            layer=node.name,
            images=num_images,
            mode="per-image",
        ):
            for image in range(num_images):
                columns = columns_batch[image]
                for tile, row_slice, bindings, _, _, _ in plan.tile_specs:
                    # Residency accounting per (image, tile) dispatch: warm on
                    # a deployed (pinned) plan, cold lease + reprogram else.
                    self.accelerator.account_tile_dispatch(tile)
                    inputs_list = [
                        {
                            name: columns[channel, position, row_slice]
                            for name, position in positions
                        }
                        for channel, positions in bindings
                    ]
                    payloads.append(
                        (
                            tile,
                            image,
                            self._columns,
                            self.backend,
                            technology,
                            inputs_list,
                        )
                    )

        started = time.perf_counter()
        with telemetry.span(
            "device.layer",
            category="device",
            track=f"ap-group/{node.planned.layer_index}",
            layer=node.name,
            images=num_images,
            executor=self.executor.name,
            backend=str(self.backend),
        ):
            results = self.executor.map_layer(
                _inference_tile_worker,
                payloads,
                lease=make_lease(self.accelerator, self._columns, self.backend),
                wave=_inference_layer_wave,
            )
        wall = time.perf_counter() - started
        return results, [(payload[0], payload[1]) for payload in payloads], wall

    # ------------------------------------------------------------------
    # Pipelined dispatch: dependency-driven execution across layers/images
    # ------------------------------------------------------------------
    def _run_pipelined(
        self, images: np.ndarray, batch: Optional[int] = None
    ) -> InferenceResult:
        """Pipelined counterpart of the layer-synchronous run.

        Every image runs its own forward on a driver thread: the host
        interstitial operators of image i+1 overlap with the AP tile
        execution of image i, and - because a weight-resident plan gives
        each layer a disjoint AP group - layer L+1 of one image streams
        through its own pinned APs while layer L of the next image is still
        in flight.  No layer barrier exists anywhere; each ``(image, layer,
        tile)`` work item dispatches the moment its input activations exist.

        Aggregated counters are rebuilt in image order at the end, so the
        returned :class:`InferenceResult` is byte-identical to the
        layer-synchronous engine's (only wall-clock and the execution's
        ``mode`` differ).
        """
        request_id = next(self._request_ids)
        started = time.perf_counter()
        x, _ = normalize_images(images, self.graph.input_shape)
        num_images = int(x.shape[0])
        store = ActivationStore(
            activation_bits=self.graph.store.activation_bits,
            signed=self.graph.store.signed,
            keep_tensors=self.graph.store.keep_tensors,
        )
        request = _PipelinedRequest(store, request_id=request_id)
        depth = self.pipeline_depth
        if depth is None:
            depth = min(max(2, len(self.graph.nodes)), 8)
        if batch is not None:
            depth = min(depth, batch)
        depth = max(1, min(depth, max(num_images, 1)))

        if num_images < 1:
            raise ModelDefinitionError(
                "a pipelined run needs at least one image"
            )
        logits_parts: List[Optional[np.ndarray]] = [None] * num_images
        with self._patched():
            with ThreadPoolExecutor(
                max_workers=depth, thread_name_prefix="pipeline-image"
            ) as drivers:
                futures = {
                    drivers.submit(self._drive_image, request, x, image): image
                    for image in range(num_images)
                }
                errors: List[BaseException] = []
                for future, image in futures.items():
                    try:
                        logits_parts[image] = future.result()
                    except BaseException as error:  # noqa: BLE001 - re-raised
                        errors.append(error)
        if errors:
            # All drivers have settled (the pool context waited); nothing is
            # left racing the executor, so propagating is safe.
            raise errors[0]

        execution = self._finalize_pipelined(request, num_images)
        finished = time.perf_counter()
        telemetry.complete(
            "session.request",
            started,
            finished,
            category="session",
            request_id=request_id,
            images=num_images,
            mode="pipelined",
        )
        execution.wall_time_s = finished - started
        # The shared graph.store is deliberately left untouched: overlapping
        # requests (and a concurrent layer-synchronous run) each own their
        # result's store; mutating the shared one here would corrupt theirs.
        logits = np.concatenate(logits_parts, axis=0)
        return InferenceResult(
            model=self.plan.name,
            logits=logits,
            images=num_images,
            execution=execution,
            store=store,
        )

    def _drive_image(
        self, request: _PipelinedRequest, x: np.ndarray, image: int
    ) -> np.ndarray:
        """One image's full forward (host ops inline, AP layers dispatched)."""

        def hook(node: DataflowNode, value: np.ndarray) -> np.ndarray:
            return self._pipelined_layer_hook(request, image, node, value)

        with self._thread_hook(hook):
            return self.graph.model(x[image : image + 1])

    def _pipelined_layer_hook(
        self,
        request: _PipelinedRequest,
        image: int,
        node: DataflowNode,
        x: np.ndarray,
    ) -> np.ndarray:
        """Quantize, dispatch and reduce one (image, layer) work item.

        Runs on the image's driver thread; the AP tile programs go through
        the executor's async ``submit_tasks`` so tiles of different layers
        and images interleave freely on one worker pool.
        """
        planned = node.planned
        mapping = node.mapping
        technology = self.accelerator.config.technology
        rows_per_ap = mapping.rows_per_ap

        codes, steps = request.store.quantize_image_input(node.name, image, x)
        columns = lower_input_rows(
            codes[0], node.kernel_size, node.stride, node.padding
        )
        payloads = []
        for tile in planned.tiles:
            # Residency accounting per (image, tile) dispatch, same as the
            # layer-synchronous engine (warm on a deployed plan).
            self.accelerator.account_tile_dispatch(tile)
            start = tile.row_tile * rows_per_ap
            row_slice = slice(start, start + tile.rows)
            inputs_list = [
                {
                    name: columns[channel, int(name[1:]), row_slice]
                    for name in program.input_columns
                }
                for channel, program in zip(tile.channel_indices, tile.programs)
            ]
            payloads.append(
                (tile, image, self._columns, self.backend, technology, inputs_list)
            )

        started = time.perf_counter()
        # No AP lease in pipelined mode: concurrent images may dispatch to
        # the same address, and pooled APs are single-occupancy host objects.
        # Workers build fresh functional APs instead - byte-identical per
        # the lease contract.  Under a wave-capable backend the image's tile
        # set executes as one mega-kernel call on the driver thread (the
        # wave is pure NumPy, so concurrent drivers still overlap).
        with telemetry.span(
            "device.layer",
            category="device",
            track=f"ap-group/{planned.layer_index}",
            layer=node.name,
            image=image,
            request_id=request.request_id,
            executor=self.executor.name,
            backend=str(self.backend),
        ):
            with self.tracker.entered(planned.layer_index):
                results = _inference_layer_wave(payloads)
                if results is None:
                    futures = self.executor.submit_tasks(
                        _inference_tile_worker, payloads
                    )
                    results = [future.result() for future in futures]
        wall = time.perf_counter() - started

        y_int = np.zeros(
            (1, mapping.out_channels, mapping.output_positions), np.int64
        )
        for payload, result in zip(payloads, results):
            tile = payload[0]
            start = tile.row_tile * rows_per_ap
            row_slice = slice(start, start + tile.rows)
            for outputs in result.outputs:
                for name, values in outputs.items():
                    y_int[0, int(name[1:]), row_slice] += values

        request.record(
            node.name,
            image,
            tiles=[
                (payload[0], result.stats)
                for payload, result in zip(payloads, results)
            ],
            checksum=sum(result.checksum for result in results),
            input_bits=int(codes.size) * request.store.activation_bits,
            wall_time_s=wall,
        )
        request.store.record_image_output(node.name, image, y_int)
        y = dequantize_batch(y_int, steps, node.weight_scale)
        return y.reshape((1,) + node.output_spatial(y_int.shape[-1]))

    def _finalize_pipelined(
        self, request: _PipelinedRequest, num_images: int
    ) -> PlanExecution:
        """Deterministic epilogue of a pipelined request.

        Rebuilds every layer's aggregation in (image, tile) order and
        charges interconnect movement per layer in plan order - the exact
        sequence the layer-synchronous engine produces - so counters,
        energies and latencies come out byte-identical regardless of
        completion order.
        """
        execution = PlanExecution(
            name=self.plan.name,
            executor=self.executor.name,
            backend=str(self.backend),
            workers=getattr(self.executor, "workers", 1),
            mode="pipelined",
        )
        for node in self.graph.nodes:
            planned = node.planned
            collector = request.layers.get(node.name)
            if collector is None or len(collector.tiles) != num_images:
                seen = 0 if collector is None else len(collector.tiles)
                raise SimulationError(
                    f"pipelined run finished with {seen}/{num_images} images "
                    f"recorded for layer {node.name!r}"
                )
            ordered = [
                (tile, stats, image)
                for image in range(num_images)
                for tile, stats in collector.tiles[image]
            ]
            movement = charge_adder_tree_movement(
                self.accelerator, planned, repeats=num_images
            )
            predecessor = self.graph.predecessor(node)
            activation_bits = float(sum(collector.input_bits.values()))
            movement = movement.merge(
                self.accelerator.charge_activation_traffic(
                    activation_bits,
                    src=(
                        predecessor.planned.tiles[0].address
                        if predecessor
                        else None
                    ),
                    dst=planned.tiles[0].address if planned.tiles else None,
                )
            )
            execution.layers.append(
                aggregate_layer_run(
                    planned,
                    ordered,
                    self.accelerator,
                    movement,
                    repeats=num_images,
                    checksum=sum(collector.checksums.values()),
                    wall_time_s=collector.wall_time_s,
                )
            )
        request.store.finalize_images(
            [node.name for node in self.graph.nodes], num_images
        )
        return execution

    # ------------------------------------------------------------------
    def _record_layer(self, result: LayerRunResult) -> None:
        """Merge a micro-batch's layer counters into the run aggregate."""
        existing = self._layer_results.get(result.name)
        if existing is None:
            self._layer_results[result.name] = result
            return
        existing.stats = existing.stats.merge(result.stats)
        existing.energy = existing.energy.merge(result.energy)
        existing.latency = existing.latency.merge(result.latency)
        existing.total_ops += result.total_ops
        existing.tiles_executed += result.tiles_executed
        existing.checksum += result.checksum
        existing.wall_time_s += result.wall_time_s

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor's pooled workers and the leased AP pool.

        Idempotent and exception-safe: a second call is a no-op, and the AP
        pool is released even if draining/closing the executor raises - a
        failed pipelined run cannot leak a worker pool or pooled APs.
        """
        if self._closed:
            return
        self._closed = True
        try:
            # Executor.close() drains its own in-flight futures first.
            self.executor.close()
        finally:
            self.accelerator.release_aps()

    def __enter__(self) -> "BatchedInference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_inference(
    model: Union[Module, str],
    images: np.ndarray,
    *,
    executor: ExecutorSpec = "serial",
    workers: Optional[int] = None,
    batch: Optional[int] = None,
    bits: int = 4,
    signed: bool = False,
    backend: Optional[str] = None,
    accelerator: Optional[Accelerator] = None,
    input_shape: Optional[Sequence[int]] = None,
    sparsity: Optional[float] = None,
    width: Optional[float] = None,
    keep_activations: bool = False,
    rng=0,
    name: Optional[str] = None,
) -> InferenceResult:
    """Run functional end-to-end inference in one call.

    .. deprecated:: 1.1
        ``run_inference`` compiles, deploys and tears everything down for
        every single call.  Use :class:`repro.session.Session` instead -
        ``compile()``/``deploy()`` once, then serve repeated ``infer()``
        requests against weights that stay resident in CAM.  This shim
        builds a one-request session under the hood (byte-identical logits
        and CAM counters) and will be removed one release after 1.1.

    Args:
        model: a module tree, or a registry model name (``vgg9``/``vgg11``/
            ``resnet18``; ``sparsity``/``width``/``rng`` configure the build).
        images: batched ``(N,) + input_shape`` images (or one un-batched
            image).
        executor: tile executor (``serial``/``parallel``/``thread``).
        workers: worker count for pool executors.
        batch: optional micro-batch size (images per pass through the pool).
        bits: activation precision.
        signed: signedness of the quantized activations.
        backend: functional AP execution backend.
        accelerator: AP provider (auto-sized when omitted; an explicit one
            that is too small for the weight-resident deploy raises
            :class:`~repro.errors.CapacityError`, as the legacy path did).
        input_shape: un-batched input shape; inferred from ``images`` (4-D and
            2-D arrays are treated as batched) or the registry when omitted.
        keep_activations: keep per-layer quantized tensors in the result's
            activation store.

    Returns:
        :class:`InferenceResult` with logits, predictions and the aggregated
        :class:`~repro.runtime.scheduler.PlanExecution` counters.
    """
    import warnings

    warnings.warn(
        "run_inference() is deprecated: it re-compiles and re-deploys per "
        "call; use repro.session.Session (compile()/deploy() once, then "
        "infer() repeatedly against CAM-resident weights)",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.session import Session, SessionConfig

    if input_shape is None and not isinstance(model, str):
        _, input_shape = normalize_images(images)
    config = SessionConfig(
        model=model,
        width=width,
        sparsity=sparsity,
        rng=rng,
        input_shape=tuple(input_shape) if input_shape is not None else None,
        bits=bits,
        signed=signed,
        backend=backend,
        executor=executor,
        workers=workers,
        keep_activations=keep_activations,
        name=name,
    )
    with Session(config, accelerator=accelerator) as session:
        session.compile().deploy()
        return session.infer(images, batch=batch)
