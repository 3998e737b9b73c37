"""The weight-resident session: deploy once, serve many requests.

A :class:`Session` is the library's top-level entry point.  It owns one
compiled network, one accelerator and one executor, and walks the paper's
operating model explicitly:

1. :meth:`Session.compile` lowers the network to per-slice AP programs once.
2. :meth:`Session.deploy` pins every layer's tile programs to concrete
   :data:`~repro.arch.accelerator.APAddress`\\ es - a weight-resident
   placement where each layer owns disjoint APs and the CAM
   write/reprogramming traffic of loading the ternary weights is metered on
   the interconnect ledger *now*, not per request.
3. :meth:`Session.infer` (real activations) and :meth:`Session.run`
   (synthetic tile inputs) serve requests against the live deployment:
   repeated calls are *warm* - zero additional AP lease or reprogram events
   on the accelerator's residency ledger, because the weights stay in CAM
   and only activations move.  :meth:`Session.submit`/:meth:`Session.gather`
   serve *overlapping* requests from multiple clients over the same pinned
   plan: each runs the same request-scoped, layer-synchronous engine as
   :meth:`Session.infer`, and the ledger stays all-warm however many
   clients overlap.
4. :meth:`Session.report` splits the accounting into ``deploy_cost`` vs
   ``per_request_cost`` and amortizes the former over the served requests;
   :meth:`Session.crosscheck` validates a served request against the
   analytic cost model.
"""

from __future__ import annotations

import enum
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.arch.accelerator import Accelerator, Deployment, ResidencyLedger
from repro.cam.stats import COUNTER_FIELDS, CAMStats
from repro.core.compiler import CompiledModel, CompilerConfig, compile_model
from repro.errors import CapacityError, SessionStateError
from repro.inference.engine import BatchedInference, InferenceResult
from repro.nn.layers import Module
from repro.nn.stats import model_layer_specs
from repro.perf.model import (
    ExecutionCrosscheck,
    SteadyStateCost,
    crosscheck_execution,
    steady_state_cost,
)
from repro.perf.pipeline import PipelineCost, pipeline_cost_from_execution
from repro.runtime.executors import Executor, resolve_executor
from repro.runtime.plan import (
    ExecutionPlan,
    build_execution_plan,
    resident_aps_required,
)
from repro.runtime.scheduler import PlanExecution, Scheduler
from repro.session import cache as compile_cache
from repro.session.config import SessionConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricsRegistry


class SessionState(enum.Enum):
    """Lifecycle of a session: created -> compiled -> deployed -> closed."""

    CREATED = "created"
    COMPILED = "compiled"
    DEPLOYED = "deployed"
    CLOSED = "closed"


@dataclass
class RequestRecord:
    """One served request: its aggregated counters and image count."""

    execution: PlanExecution
    #: Images processed (``None`` for synthetic tile-input runs).
    images: Optional[int]
    kind: str = "infer"


#: Most recent request records a session keeps (``Session.requests``,
#: ``SessionReport.records``).  Older requests live on only in the running
#: totals behind :meth:`Session.report`, so a serving session's memory does
#: not grow with the requests it serves.
RECORD_WINDOW = 64


@dataclass
class _RequestTotals:
    """Running sums over every request a session recorded.

    Each sum is added in record order, starting from zero, so every figure
    equals the sum over the full record list.  ``stats`` sums every layer's
    counters by field (no ``CAMStats`` is built per request).
    ``last_infer`` is the most recent inference record, the input of the
    pipeline model.
    """

    requests: int = 0
    images: int = 0
    energy_uj: float = 0.0
    latency_ms: float = 0.0
    wall_s: float = 0.0
    stats: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTER_FIELDS, 0)
    )
    last_infer: Optional[RequestRecord] = None

    def add(self, record: RequestRecord) -> None:
        execution = record.execution
        self.requests += 1
        self.images += record.images or 0
        self.energy_uj += execution.energy_uj
        self.latency_ms += execution.latency_ms
        self.wall_s += execution.wall_time_s
        for layer in execution.layers:
            for name in COUNTER_FIELDS:
                self.stats[name] += getattr(layer.stats, name)
        if record.kind == "infer" and record.images:
            self.last_infer = record


@dataclass
class PendingRequest:
    """Handle of one in-flight :meth:`Session.submit` request.

    Requests submitted to a live session overlap on the serving pool; this
    handle is how one client waits for its own result without blocking the
    others.  :meth:`Session.gather` collects every outstanding handle in
    submission order.
    """

    index: int
    _future: Future = field(repr=False)

    def done(self) -> bool:
        """Whether the request has finished (successfully or not)."""
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> InferenceResult:
        """Block until the request completes and return its result."""
        return self._future.result(timeout)


@dataclass
class SessionReport:
    """Amortized steady-state accounting of one session.

    The headline split the API redesign exists for: ``deployment`` carries
    the one-time weight-programming cost, ``cost`` carries the mean
    per-request figures plus the amortization math, and ``residency`` shows
    that warm requests were served with zero additional lease/reprogram
    events.
    """

    name: str
    state: str
    executor: str
    backend: str
    deployment: Optional[Deployment]
    cost: SteadyStateCost
    residency: ResidencyLedger
    requests: int = 0
    images: int = 0
    request_wall_s: float = 0.0
    #: The most recent requests, at most :data:`RECORD_WINDOW` of them.
    records: List[RequestRecord] = field(default_factory=list)
    #: Fill/steady-state/drain model of the last inference request's stage
    #: profile (``None`` until an inference request was served).
    pipeline: Optional[PipelineCost] = None

    @property
    def deploy_energy_uj(self) -> float:
        """One-time weight-programming energy."""
        return self.cost.deploy_energy_uj

    @property
    def per_request_energy_uj(self) -> float:
        """Mean functional energy of one served request."""
        return self.cost.per_request_energy_uj

    def to_registry(self) -> "MetricsRegistry":
        """Render the report into a :class:`~repro.telemetry.metrics.MetricsRegistry`.

        Counters carry the monotonic event/traffic totals, gauges the
        point-in-time cost figures.  Metric names equal the flat keys
        :meth:`to_metrics` has always emitted, so ``registry.flat()`` is the
        exact ``repro serve --json`` payload.
        """
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("requests", "requests served").inc(self.requests)
        registry.counter("images", "images processed").inc(self.images)
        registry.gauge("aps_pinned", "APs pinned by the deploy").set(
            self.deployment.aps_pinned if self.deployment else 0
        )
        registry.gauge("tile_programs_resident", "resident tile programs").set(
            self.deployment.tile_programs if self.deployment else 0
        )
        registry.counter("cam_bits_programmed", "CAM bits programmed").inc(
            self.deployment.weight_bits if self.deployment else 0.0
        )
        registry.gauge("deploy_energy_uj").set(self.cost.deploy_energy_uj)
        registry.gauge("deploy_latency_ms").set(self.cost.deploy_latency_ms)
        registry.gauge("per_request_energy_uj").set(self.cost.per_request_energy_uj)
        registry.gauge("per_request_latency_ms").set(
            self.cost.per_request_latency_ms
        )
        registry.gauge("request_wall_s").set(self.request_wall_s)
        registry.counter("cold_lease_events").inc(self.residency.lease_events)
        registry.counter("cam_reprogram_events").inc(
            self.residency.reprogram_events
        )
        registry.counter("warm_dispatches").inc(self.residency.warm_hits)
        if self.requests:
            registry.gauge("amortized_energy_uj").set(
                self.cost.amortized_energy_uj()
            )
            registry.gauge("amortized_latency_ms").set(
                self.cost.amortized_latency_ms()
            )
        if self.pipeline is not None:
            registry.gauge("pipeline_stages").set(self.pipeline.stages)
            registry.gauge("pipeline_fill_ms").set(self.pipeline.fill_ms)
            registry.gauge("pipeline_steady_interval_ms").set(
                self.pipeline.bottleneck_ms
            )
            registry.gauge("pipeline_batch_ms").set(
                self.pipeline.pipelined_latency_ms
            )
            registry.gauge("pipeline_speedup").set(self.pipeline.speedup)
            registry.gauge("pipeline_steady_state_speedup").set(
                self.pipeline.steady_state_speedup
            )
        return registry

    def to_metrics(self) -> dict:
        """Flat metric dict (the machine-readable ``repro serve --json``
        payload; same shape as the ``metrics`` object of the benchmark
        harness's ``BENCH_<name>.json`` files).  Rendered through
        :meth:`to_registry` - keys and values are unchanged from the
        pre-registry schema."""
        return self.to_registry().flat()

    def to_text(self) -> str:
        """Human-readable report used by ``repro serve``."""
        from repro.eval.reporting import format_table

        deploy_rows = [
            ["APs pinned", self.deployment.aps_pinned if self.deployment else 0],
            [
                "tile programs resident",
                self.deployment.tile_programs if self.deployment else 0,
            ],
            [
                "CAM bits programmed",
                f"{self.deployment.weight_bits:.0f}" if self.deployment else "0",
            ],
            ["deploy energy (uJ)", f"{self.cost.deploy_energy_uj:.4f}"],
            ["deploy latency (ms)", f"{self.cost.deploy_latency_ms:.5f}"],
        ]
        request_rows = [
            ["requests served", self.requests],
            ["images processed", self.images],
            ["energy / request (uJ)", f"{self.cost.per_request_energy_uj:.4f}"],
            ["latency / request (ms)", f"{self.cost.per_request_latency_ms:.5f}"],
            ["host wall-clock / request (s)", f"{self.request_wall_s:.3f}"],
        ]
        if self.requests:
            request_rows.append(
                [
                    "amortized energy / request (uJ)",
                    f"{self.cost.amortized_energy_uj():.4f}",
                ]
            )
            request_rows.append(
                [
                    "amortized latency / request (ms)",
                    f"{self.cost.amortized_latency_ms():.5f}",
                ]
            )
        residency_rows = [
            ["cold lease events", self.residency.lease_events],
            ["CAM reprogram events", self.residency.reprogram_events],
            ["warm dispatches", self.residency.warm_hits],
        ]
        tables = [
            format_table(
                ["deploy cost", "value"],
                deploy_rows,
                title=(
                    f"session {self.name!r} ({self.state}, "
                    f"{self.executor} executor, {self.backend} backend)"
                ),
            ),
            "",
            format_table(["per-request cost", "value"], request_rows),
            "",
            format_table(
                ["residency ledger", "value"],
                residency_rows,
                title="weights stay in CAM: warm requests lease nothing",
            ),
        ]
        if self.pipeline is not None:
            pipeline_rows = [
                ["stages (resident layers)", self.pipeline.stages],
                ["images / request", self.pipeline.images],
                ["fill (ms)", f"{self.pipeline.fill_ms:.5f}"],
                [
                    "steady-state interval (ms/image)",
                    f"{self.pipeline.bottleneck_ms:.5f}",
                ],
                [
                    "pipelined batch (ms)",
                    f"{self.pipeline.pipelined_latency_ms:.5f}",
                ],
                [
                    "layer-synchronous batch (ms)",
                    f"{self.pipeline.synchronous_latency_ms:.5f}",
                ],
                ["modeled speedup", f"{self.pipeline.speedup:.2f}x"],
                [
                    "steady-state speedup (asymptote)",
                    f"{self.pipeline.steady_state_speedup:.2f}x",
                ],
            ]
            tables.extend(
                [
                    "",
                    format_table(
                        ["pipeline model", "value"],
                        pipeline_rows,
                        title="fill / steady state / drain of the stage pipeline",
                    ),
                ]
            )
        return "\n".join(tables)


class Session:
    """A weight-resident serving session over one compiled network.

    Args:
        config: consolidated session configuration; keyword overrides are
            applied on top (``Session(model="vgg9", bits=8)`` works without
            building a config first).
        accelerator: explicit AP provider; built from ``config.arch`` when
            omitted.  ``config.auto_size`` (the default) grows only
            *internally built* accelerators (whole banks added, recorded on
            :attr:`accelerator`); an explicitly provided accelerator that is
            too small for the weight-resident deploy raises
            :class:`~repro.errors.CapacityError` - its ledgers and
            interconnect are the caller's, so it is never silently replaced.

    Usage::

        with Session(model="vgg9", width=1 / 16) as session:
            session.compile().deploy()
            for batch in batches:
                result = session.infer(batch)
        print(session.report().to_text())
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        accelerator: Optional[Accelerator] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self._accelerator_provided = accelerator is not None
        self.state = SessionState.CREATED
        #: Resolved module tree (after compile()).
        self.model: Optional[Module] = None
        self.input_shape: Optional[tuple] = None
        self.compiled: Optional[CompiledModel] = None
        self.accelerator: Optional[Accelerator] = accelerator
        self.plan: Optional[ExecutionPlan] = None
        self.deployment: Optional[Deployment] = None
        self._executor: Optional[Executor] = None
        self._driver: Optional[BatchedInference] = None
        self._requests: Deque[RequestRecord] = deque(maxlen=RECORD_WINDOW)
        self._totals = _RequestTotals()
        self._record_lock = threading.Lock()
        #: Overlapping-request machinery (submit()/gather()).
        self._serving_pool: Optional[ThreadPoolExecutor] = None
        self._pending: List[PendingRequest] = []
        self._submit_lock = threading.Lock()
        self._submitted = 0
        #: Structured tracing: installed for the session's lifetime when
        #: ``config.trace`` asks for it.  A tracer that was already
        #: installed (an enclosing session, a test harness) is shared and
        #: never uninstalled by this session's close().
        self._owns_tracer = config.trace_enabled and not telemetry.enabled()
        self._tracer: Optional[telemetry.Tracer] = (
            telemetry.install() if config.trace_enabled else None
        )
        #: Witness of the opt-in on-disk compile cache (``REPRO_COMPILE_CACHE``):
        #: ``"off"`` (disabled or uncacheable config), ``"miss"`` (compiled and
        #: stored), or ``"hit"`` (artifacts loaded, compiler skipped).
        self.compile_cache_status: str = "off"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _require(self, *states: SessionState) -> None:
        if self.state not in states:
            expected = " or ".join(state.value for state in states)
            raise SessionStateError(
                f"session is {self.state.value!r}; this call needs {expected} "
                f"(lifecycle: compile() -> deploy() -> infer()/run())"
            )

    def compile(self) -> "Session":
        """Lower the configured network to per-slice AP programs (once)."""
        self._require(SessionState.CREATED)
        config = self.config
        if isinstance(config.model, str):
            from repro.nn.models.registry import build_model

            self.model, registry_shape = build_model(
                config.model,
                sparsity=config.sparsity,
                rng=config.rng,
                width=config.width,
            )
            self.input_shape = tuple(config.input_shape or registry_shape)
        else:
            self.model = config.model
            if config.input_shape is None:
                raise SessionStateError(
                    "SessionConfig.input_shape is required for module-tree "
                    "models (registry names carry their dataset's shape)"
                )
            self.input_shape = tuple(config.input_shape)
        specs = model_layer_specs(self.model, self.input_shape)
        if config.layers is not None:
            specs = specs[: config.layers]
        import repro as _repro

        cache_directory = compile_cache.cache_dir()
        cache_key = (
            compile_cache.cache_key(config, _repro.__version__)
            if cache_directory is not None
            else None
        )
        if cache_key is not None:
            cached = compile_cache.load(cache_directory, cache_key)
            if cached is not None:
                self.compiled = cached
                self.compile_cache_status = "hit"
                self.state = SessionState.COMPILED
                return self
            self.compile_cache_status = "miss"
        with telemetry.span(
            "session.compile",
            category="session",
            model=config.display_name,
            layers=len(specs),
        ):
            self.compiled = compile_model(
                specs,
                CompilerConfig(
                    activation_bits=config.bits,
                    signed_activations=config.signed,
                    max_slices_per_layer=config.slices,
                ),
                name=config.display_name,
                emit_programs=True,
            )
        if cache_key is not None:
            compile_cache.store(cache_directory, cache_key, self.compiled)
        self.state = SessionState.COMPILED
        return self

    def adopt(
        self,
        model: Module,
        input_shape: Sequence[int],
        compiled: CompiledModel,
    ) -> "Session":
        """Adopt pre-compiled artifacts instead of running :meth:`compile`.

        The cluster serving subsystem (:mod:`repro.serving`) compiles a
        network *once* in the parent process and hands every worker replica
        the same module tree and :class:`~repro.core.compiler.CompiledModel`;
        each replica then deploys its own copy onto its own accelerator.
        Adopting moves the session straight to the ``compiled`` state - the
        artifacts must belong together (the compiled model was produced from
        this module tree at this input shape), which the caller guarantees.
        """
        self._require(SessionState.CREATED)
        if compiled is None or model is None:
            raise SessionStateError(
                "adopt() needs both the module tree and its compiled model"
            )
        self.model = model
        self.input_shape = tuple(input_shape)
        self.compiled = compiled
        self.state = SessionState.COMPILED
        return self

    def deploy(self) -> "Session":
        """Pin the compiled network's weights into CAM (once).

        Builds the weight-resident execution plan (every layer owns disjoint
        APs), meters the CAM weight-programming traffic on the interconnect
        ledger, and readies the executor and - for functional sessions - the
        inference dataflow.  After this, :meth:`infer` and :meth:`run` serve
        warm requests indefinitely.
        """
        self._require(SessionState.COMPILED)
        config = self.config
        deploy_started = time.perf_counter()
        accelerator = self.accelerator
        if accelerator is None:
            accelerator = (
                Accelerator(config=config.arch)
                if config.backend is None
                else Accelerator(config=config.arch, backend=config.backend)
            )
        try:
            plan = build_execution_plan(
                self.compiled,
                accelerator=accelerator,
                base_seed=config.seed,
                placement="resident",
                verify=config.verify,
            )
        except CapacityError:
            if not config.auto_size or self._accelerator_provided:
                raise
            needed = resident_aps_required(self.compiled)
            accelerator = Accelerator(
                config=accelerator.config.with_total_aps(needed),
                backend=accelerator.backend,
            )
            plan = build_execution_plan(
                self.compiled,
                accelerator=accelerator,
                base_seed=config.seed,
                placement="resident",
                verify=config.verify,
            )
        self.accelerator = accelerator
        self.plan = plan
        self._executor = resolve_executor(config.executor, workers=config.workers)
        backend = config.backend if config.backend is not None else accelerator.backend
        self.deployment = accelerator.deploy_plan(plan, backend=backend)
        if config.functional:
            self._driver = BatchedInference(
                self.model,
                self.input_shape,
                bits=config.bits,
                signed=config.signed,
                accelerator=accelerator,
                executor=self._executor,
                backend=config.backend,
                keep_activations=config.keep_activations,
                name=config.display_name,
                compiled=self.compiled,
                plan=plan,
            )
        self.state = SessionState.DEPLOYED
        telemetry.complete(
            "session.deploy",
            deploy_started,
            time.perf_counter(),
            category="session",
            model=config.display_name,
            executor=self._executor.name,
            backend=str(backend),
            aps_pinned=self.deployment.aps_pinned,
        )
        return self

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _require_functional(self) -> BatchedInference:
        if self._driver is None:
            raise SessionStateError(
                f"session {self.config.display_name!r} was compiled with "
                f"statistics sampling (slices={self.config.slices}, "
                f"layers={self.config.layers}); functional inference needs "
                f"every input-channel slice of every layer - build the "
                f"session without slices/layers, or use run() for synthetic "
                f"execution"
            )
        return self._driver

    def infer(
        self, images: np.ndarray, batch: Optional[int] = None
    ) -> InferenceResult:
        """Serve one request: real images through the resident dataflow.

        Warm by construction - the deployed plan's weights are pinned, so no
        AP is leased and no CAM is reprogrammed; only activations move.

        Args:
            images: batched ``(N,) + input_shape`` array (or one un-batched
                image).
            batch: optional micro-batch size (images per pass through the
                pool); chunked and unchunked execution are byte-identical.

        Raises:
            ModelDefinitionError: for images that do not match the input
                shape, an empty batch, or NaN/infinite values.
        """
        self._require(SessionState.DEPLOYED)
        driver = self._require_functional()
        result = driver.run(images, batch=batch)
        self._record(RequestRecord(execution=result.execution, images=result.images))
        return result

    def _record(self, record: RequestRecord) -> None:
        """Add one served request to the record window and the totals."""
        with self._record_lock:
            self._requests.append(record)
            self._totals.add(record)

    # ------------------------------------------------------------------
    # Overlapping requests: one live deployment, many concurrent clients
    # ------------------------------------------------------------------
    def submit(
        self, images: np.ndarray, batch: Optional[int] = None
    ) -> PendingRequest:
        """Enqueue one inference request on the live deployment (async).

        Up to ``SessionConfig.concurrency`` submitted requests execute
        *overlapped* over the same pinned plan, each through the same
        request-scoped engine run as :meth:`infer` (byte-identical results);
        the executor pool is shared, and the residency ledger stays
        all-warm - no cold lease or reprogram event is charged however many
        clients overlap, because the weights never leave CAM.

        Returns a :class:`PendingRequest`; call its ``result()`` or collect
        every outstanding request with :meth:`gather` (which also appends
        the per-request records the session report aggregates).
        """
        self._require(SessionState.DEPLOYED)
        driver = self._require_functional()
        with self._submit_lock:
            # Re-check under the lock: a close() racing this submit() must
            # not see the state check pass and then have a fresh serving
            # pool (and cold dispatches) materialize after teardown.
            self._require(SessionState.DEPLOYED)
            if self._serving_pool is None:
                self._serving_pool = ThreadPoolExecutor(
                    max_workers=self.config.concurrency,
                    thread_name_prefix="session-request",
                )
            index = self._submitted
            self._submitted += 1
            future = self._serving_pool.submit(driver.run, images, batch=batch)
            handle = PendingRequest(index=index, _future=future)
            self._pending.append(handle)
        return handle

    def gather(self) -> List[InferenceResult]:
        """Wait for every outstanding :meth:`submit` request (in order).

        Results come back in submission order and are appended to the
        session's request records (so :meth:`report` sees them) in that same
        order, no matter how the overlapped executions interleaved.  If any
        request failed, the remaining ones still complete and are recorded;
        the first failure is then re-raised.
        """
        self._require(SessionState.DEPLOYED)
        with self._submit_lock:
            handles, self._pending = self._pending, []
        results: List[InferenceResult] = []
        first_error: Optional[BaseException] = None
        for handle in handles:
            try:
                result = handle.result()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
                continue
            results.append(result)
            self._record(
                RequestRecord(execution=result.execution, images=result.images)
            )
        if first_error is not None:
            raise first_error
        return results

    def run(self) -> PlanExecution:
        """Serve one synthetic request: seeded tile inputs, exact counters.

        The deterministic workload of ``repro run``, executed against the
        *resident* deployment by the layer-synchronous
        :class:`~repro.runtime.scheduler.Scheduler`: same tile programs, same
        seeds, but the dispatches are warm.  It is the only path that serves
        sampled sessions (``slices``/``layers``).
        """
        self._require(SessionState.DEPLOYED)
        scheduler = Scheduler(
            self.accelerator, executor=self._executor, backend=self.config.backend
        )
        # The session owns the executor; Scheduler.close() is NOT called so
        # pool workers survive for the next request.
        execution = scheduler.run(self.plan)
        self._record(RequestRecord(execution=execution, images=None, kind="run"))
        return execution

    def crosscheck(
        self, execution: Optional[PlanExecution] = None, images: Optional[int] = None
    ) -> ExecutionCrosscheck:
        """Validate a served request against the analytic cost model.

        Defaults to the most recent request; ``images`` scales the analytic
        expectation and defaults to the request's own image count.
        """
        self._require(SessionState.DEPLOYED)
        if execution is None:
            if not self._requests:
                raise SessionStateError(
                    "no requests served yet; call infer() or run() first"
                )
            execution = self._requests[-1].execution
        if images is None:
            # An explicitly passed execution is matched back to its request
            # record so the analytic expectation scales with the images it
            # actually processed.
            record = next(
                (r for r in self._requests if r.execution is execution), None
            )
            images = record.images if record is not None and record.images else 1
        return crosscheck_execution(self.plan, execution, images=images)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[RequestRecord]:
        """The most recent requests, oldest first (at most
        :data:`RECORD_WINDOW`; :meth:`report` covers every request)."""
        return list(self._requests)

    @property
    def graph(self):
        """The deployed dataflow graph (functional sessions only)."""
        return self._driver.graph if self._driver is not None else None

    @property
    def residency(self) -> ResidencyLedger:
        """The accelerator's lease/reprogram/warm-hit ledger snapshot."""
        if self.accelerator is None:
            return ResidencyLedger()
        return self.accelerator.residency

    def report(self) -> SessionReport:
        """Split the session's accounting into deploy vs. per-request cost."""
        if self.deployment is None:
            raise SessionStateError("nothing deployed yet; call deploy() first")
        with self._record_lock:
            totals = replace(self._totals)
            records = list(self._requests)
        cost = steady_state_cost(
            self.deployment, totals.requests, totals.energy_uj, totals.latency_ms
        )
        pipeline = None
        last_infer = totals.last_infer
        if last_infer is not None:
            pipeline = pipeline_cost_from_execution(
                last_infer.execution, images=last_infer.images
            )
        return SessionReport(
            name=self.config.display_name,
            state=self.state.value,
            executor=self._executor.name if self._executor else "-",
            backend=str(
                self.config.backend
                if self.config.backend is not None
                else (self.accelerator.backend if self.accelerator else "-")
            ),
            deployment=self.deployment,
            cost=cost,
            residency=self.residency,
            requests=totals.requests,
            images=totals.images,
            request_wall_s=totals.wall_s / totals.requests if totals.requests else 0.0,
            records=records,
            pipeline=pipeline,
        )

    @property
    def tracer(self) -> Optional[telemetry.Tracer]:
        """The session's tracer (``None`` unless ``config.trace`` is set)."""
        return self._tracer

    def trace_events(self) -> List[telemetry.SpanEvent]:
        """Snapshot of the spans collected so far (empty when not tracing)."""
        return self._tracer.events() if self._tracer is not None else []

    def write_trace(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write the collected spans as Chrome-trace JSON; returns the count."""
        events = self.trace_events()
        telemetry.write_chrome_trace(path, events)
        return len(events)

    def metrics_registry(self) -> "MetricsRegistry":
        """One registry over every ledger: report, CAM, residency, movement.

        Mirrors the session's existing ledgers (they stay the source of
        truth) plus - when tracing is on - the wall-clock histograms folded
        from the collected spans.
        """
        from repro.telemetry import metrics as metrics_mod

        if self.deployment is not None:
            registry = self.report().to_registry()
        else:
            registry = metrics_mod.MetricsRegistry()
        with self._record_lock:
            total = CAMStats(**self._totals.stats) if self._totals.requests else None
        if total is not None:
            metrics_mod.record_cam_stats(registry, total)
        if self.accelerator is not None:
            metrics_mod.record_residency(registry, self.accelerator.residency)
            metrics_mod.record_movement(
                registry, self.accelerator.movement_ledger()
            )
        if self._tracer is not None:
            metrics_mod.record_span_latencies(registry, self._tracer.events())
        return registry

    @property
    def metrics(self) -> "MetricsRegistry":
        """The unified metrics registry (built on demand from the ledgers)."""
        return self.metrics_registry()

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        parts = [f"session {self.config.display_name!r} ({self.state.value})"]
        if self.plan is not None:
            parts.append(self.plan.describe())
        if self.deployment is not None:
            parts.append(self.deployment.describe())
        return "; ".join(parts)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the serving pool, executor pool, pinned leases and APs.

        Idempotent and exception-safe: calling it twice is a no-op, every
        teardown stage runs even if an earlier one raises, and outstanding
        :meth:`submit` requests are waited out first - so a failed request
        (or a close() racing in-flight requests) can never leak a worker
        pool or a pinned lease.
        """
        if self.state == SessionState.CLOSED:
            return
        self.state = SessionState.CLOSED
        try:
            with self._submit_lock:
                pool, self._serving_pool = self._serving_pool, None
                self._pending = []
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            try:
                if self._driver is not None:
                    self._driver.close()
                elif self._executor is not None:
                    self._executor.close()
            finally:
                try:
                    if self.accelerator is not None:
                        self.accelerator.unpin_aps()
                        if self._driver is None:
                            self.accelerator.release_aps()
                finally:
                    self._finalize_trace()

    def _finalize_trace(self) -> None:
        """Flush the trace file (if configured) and release an owned tracer."""
        tracer = self._tracer
        if tracer is None:
            return
        path = self.config.trace_path
        if path is not None:
            telemetry.write_chrome_trace(path, tracer.events())
        if self._owns_tracer and telemetry.get_tracer() is tracer:
            telemetry.uninstall()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session {self.config.display_name!r} state={self.state.value}>"


def serve(
    model: Union[str, Module],
    batches: Sequence[np.ndarray],
    **config_kwargs,
) -> SessionReport:
    """Convenience loop: deploy once, serve every batch, return the report.

    Equivalent to building a :class:`Session`, compiling, deploying,
    calling :meth:`Session.infer` per batch and closing.  The report is
    exactly what :meth:`Session.report` would return - per-request figures
    cover serving only; the one-time compile/deploy cost is in
    ``report.deployment`` / ``report.cost.deploy_*``.
    """
    with Session(model=model, **config_kwargs) as session:
        session.compile().deploy()
        for batch in batches:
            session.infer(batch)
        return session.report()
