"""The cluster: a resident plan sharded across worker replicas.

A :class:`Cluster` mirrors the single-process :class:`~repro.session.Session`
lifecycle at data-parallel scale:

1. :meth:`Cluster.start` compiles the network **once** in the parent
   process, then forks ``config.replicas`` worker processes.  Each replica
   adopts the compiled artifacts, builds its *own*
   :class:`~repro.arch.accelerator.Accelerator`, and deploys the same
   weight-resident plan - the cluster is N independent copies of one
   deployment, not one accelerator shared across processes.  ``start()``
   returns only after every replica has passed its deploy barrier
   (:class:`~repro.serving.worker.ReadyReply`), so the first served request
   is warm on every replica.
2. :meth:`Cluster.submit`/:meth:`Cluster.submit_wave` route request waves
   to replicas (round-robin, or least-loaded by each replica's in-flight
   request count);
   :meth:`Cluster.gather` collects results in submission order.  A replica
   that raises - or dies outright - fails only its own in-flight requests
   with a typed :class:`~repro.errors.RequestError`; the survivors keep
   serving.
3. :meth:`Cluster.stats` exposes per-replica residency deltas (the
   zero-cold-lease invariant, now asserted per replica), and
   :meth:`Cluster.close` drains in-flight work, stops every worker with the
   channel's send/join discipline, and finalizes one Chrome trace that
   covers the whole cluster (parent spans plus every replica's shipped
   span batches).

The asyncio front door (:class:`~repro.serving.frontend.Frontend`) layers
admission control and continuous batching on top of this class; the
:class:`Cluster` itself is a plain thread-safe object usable directly.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.errors import ClusterError, RequestError, SimulationError
from repro.runtime.executors import mp_context
from repro.serving.config import ClusterConfig
from repro.serving.worker import (
    FatalReply,
    ReadyReply,
    StopReply,
    WaveFailure,
    WaveItem,
    WaveReply,
    WaveRequest,
    WorkerChannel,
    worker_main,
)

__all__ = ["Cluster", "ClusterResult", "ClusterStats", "ReplicaStats", "RequestHandle"]


@dataclass(frozen=True)
class ClusterResult:
    """One served request's result, as returned by the cluster.

    ``logits`` are byte-identical to what a single-process
    :meth:`~repro.session.Session.infer` produces for the same images -
    whichever replica served the request and whatever wave it was coalesced
    into.
    """

    request_id: int
    replica: int
    logits: np.ndarray
    images: int
    #: Worker-side wall-clock of the wave that served this request.
    wall_s: float
    #: Parent-side latency from submit to settle.
    latency_s: float

    @property
    def predictions(self) -> np.ndarray:
        """Argmax class per image."""
        return np.argmax(self.logits, axis=1)


@dataclass
class RequestHandle:
    """Handle of one in-flight cluster request (mirrors ``PendingRequest``)."""

    request_id: int
    replica: int
    _future: Future
    _submitted_at: float

    def done(self) -> bool:
        """Whether the request has finished (successfully or not)."""
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> ClusterResult:
        """Block until the request completes and return its result.

        Raises :class:`~repro.errors.RequestError` if the request failed on
        (or died with) its replica.
        """
        return self._future.result(timeout)


@dataclass(frozen=True)
class ReplicaStats:
    """One replica's serving counters and residency delta."""

    replica: int
    alive: bool
    requests: int
    failures: int
    in_flight: int
    dispatches: int
    max_in_flight: int
    #: AP lease events since this replica's deploy barrier (0 == all-warm).
    cold_leases: int
    #: CAM reprogram events since the deploy barrier.
    cold_reprograms: int
    warm_hits: int
    aps_pinned: int
    tile_programs: int


@dataclass(frozen=True)
class ClusterStats:
    """Cluster-wide serving statistics (per-replica breakdown included)."""

    replicas: Tuple[ReplicaStats, ...]

    @property
    def live_replicas(self) -> int:
        """Replicas whose worker process is still running."""
        return sum(1 for stats in self.replicas if stats.alive)

    @property
    def requests(self) -> int:
        """Requests served successfully across all replicas."""
        return sum(stats.requests for stats in self.replicas)

    @property
    def failures(self) -> int:
        """Requests failed across all replicas."""
        return sum(stats.failures for stats in self.replicas)

    @property
    def cold_leases(self) -> int:
        """Post-deploy AP lease events across all replicas (0 == warm)."""
        return sum(stats.cold_leases for stats in self.replicas)

    @property
    def all_warm(self) -> bool:
        """Whether every replica served strictly from residency."""
        return all(
            stats.cold_leases == 0 and stats.cold_reprograms == 0
            for stats in self.replicas
        )


class _Replica:
    """Parent-side state of one worker replica."""

    def __init__(self, replica_id: int, process, channel: WorkerChannel, response):
        self.replica_id = replica_id
        self.process = process
        self.channel = channel
        self.response = response
        self.ready = threading.Event()
        self.ready_info: Optional[ReadyReply] = None
        self.fatal: Optional[FatalReply] = None
        self.stopped = False
        self.dead = False
        #: Residency counters at the deploy barrier (the warm baseline).
        self.baseline_leases = 0
        self.baseline_reprograms = 0
        #: Latest counters seen in any reply.
        self.lease_events = 0
        self.reprogram_events = 0
        self.warm_hits = 0
        self.requests = 0
        self.failures = 0
        #: Requests routed here and not yet settled, requests ever routed
        #: here, and the high-water mark of ``in_flight`` (all guarded by the
        #: cluster's lock).
        self.in_flight = 0
        self.dispatches = 0
        self.max_in_flight = 0
        self.pending: Dict[int, RequestHandle] = {}
        self.reader: Optional[threading.Thread] = None

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def observe(self, residency) -> None:
        self.lease_events = residency.lease_events
        self.reprogram_events = residency.reprogram_events
        self.warm_hits = residency.warm_hits

    def settle(self, count: int = 1) -> None:
        """Release ``count`` in-flight slots (caller holds the cluster lock)."""
        if self.in_flight < count:
            raise SimulationError(
                f"in-flight underflow on replica {self.replica_id}: "
                f"{count} request(s) settled, {self.in_flight} in flight"
            )
        self.in_flight -= count

    @property
    def cold_leases(self) -> int:
        return self.lease_events - self.baseline_leases

    @property
    def cold_reprograms(self) -> int:
        return self.reprogram_events - self.baseline_reprograms


class Cluster:
    """Data-parallel serving: one compiled plan, N resident worker replicas.

    Mirrors the :class:`~repro.session.Session` surface (``start`` plays the
    role of ``compile``+``deploy``; ``submit``/``gather``/``infer``/``stats``
    /``close`` carry over), usable directly or under the asyncio
    :class:`~repro.serving.frontend.Frontend`::

        with Cluster(ClusterConfig(model="vgg9", replicas=4)) as cluster:
            cluster.start()
            handles = [cluster.submit(images) for images in requests]
            results = cluster.gather()
    """

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides) -> None:
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.started = False
        self.closed = False
        self.model = None
        self.input_shape: Optional[tuple] = None
        self.compiled = None
        #: Compile-cache witness from the one parent-process compile
        #: (``"off"``/``"miss"``/``"hit"``, see ``REPRO_COMPILE_CACHE``).
        self.compile_cache_status: str = "off"
        self._replicas: List[_Replica] = []
        self._lock = threading.Lock()
        self._next_request = 0
        self._round_robin = 0
        self._submitted: List[RequestHandle] = []
        self._latencies_s: List[float] = []
        self._owns_tracer = config.trace_enabled and not telemetry.enabled()
        self._tracer: Optional[telemetry.Tracer] = (
            telemetry.install() if config.trace_enabled else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Cluster":
        """Compile once, fork the replicas, wait for every deploy barrier."""
        with self._lock:
            if self.closed:
                raise ClusterError("cluster is closed")
            if self.started:
                raise ClusterError("cluster is already started")
            self.started = True
        try:
            self._compile_artifacts()
            self._spawn_replicas()
            self._await_ready()
        except BaseException:
            self.close()
            raise
        return self

    def _compile_artifacts(self) -> None:
        """Compile the network once in the parent process.

        Replicas adopt these artifacts (inherited for free under fork)
        instead of compiling ``replicas`` times.
        """
        from repro.session import Session

        with telemetry.span(
            "cluster.compile",
            category="serving",
            model=self.config.display_name,
            replicas=self.config.replicas,
        ):
            scratch = Session(self.config.session_config())
            try:
                scratch.compile()
                self.model = scratch.model
                self.input_shape = scratch.input_shape
                self.compiled = scratch.compiled
                self.compile_cache_status = scratch.compile_cache_status
            finally:
                scratch.close()

    def _spawn_replicas(self) -> None:
        context = mp_context()
        artifacts = (self.model, self.input_shape, self.compiled)
        # A process pool inside a daemonic process is not allowed, so only
        # the serial executor gets daemon workers (the safety net that
        # reaps replicas if the parent dies without close()).
        daemon = self.config.executor != "parallel"
        for index in range(self.config.replicas):
            request_recv, request_send = context.Pipe(duplex=False)
            response_recv, response_send = context.Pipe(duplex=False)
            process = context.Process(
                target=worker_main,
                args=(index, self.config, artifacts, request_recv, response_send),
                name=f"repro-replica-{index}",
                daemon=daemon,
            )
            process.start()
            # Close the parent's copy of the worker-side ends so the pipes
            # hold exactly one writer/reader per direction.
            request_recv.close()
            response_send.close()
            replica = _Replica(
                index, process, WorkerChannel(process, request_send), response_recv
            )
            replica.reader = threading.Thread(
                target=self._read_replies,
                args=(replica,),
                name=f"repro-replica-{index}-reader",
                daemon=True,
            )
            replica.reader.start()
            self._replicas.append(replica)

    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.config.start_timeout_s
        for replica in self._replicas:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not replica.ready.wait(remaining):
                raise ClusterError(
                    f"replica {replica.replica_id} missed the deploy barrier "
                    f"after {self.config.start_timeout_s:.0f}s"
                )
            if replica.fatal is not None:
                raise ClusterError(
                    f"replica {replica.replica_id} failed to deploy: "
                    f"{replica.fatal.cause}\n{replica.fatal.detail}"
                )
            if replica.ready_info is None:
                raise ClusterError(
                    f"replica {replica.replica_id} died before its deploy "
                    f"barrier (exit code {replica.channel.exitcode})"
                )

    # ------------------------------------------------------------------
    # Reply pump (one reader thread per replica)
    # ------------------------------------------------------------------
    def _read_replies(self, replica: _Replica) -> None:
        """Pump one replica's reply pipe until it stops or dies.

        Polling (instead of blocking on a raw ``recv``) lets the reader
        notice a dead worker even while sibling replicas - forked later -
        still hold inherited copies of this pipe's write end open.
        """
        connection = replica.response
        while True:
            try:
                if connection.poll(0.1):
                    self._dispatch_reply(replica, connection.recv())
                    continue
            except (EOFError, OSError):
                break
            if replica.stopped:
                break
            if not replica.process.is_alive():
                # Drain anything the worker flushed before dying.
                try:
                    while connection.poll(0):
                        self._dispatch_reply(replica, connection.recv())
                except (EOFError, OSError):
                    pass
                break
        self._mark_dead(replica)

    def _dispatch_reply(self, replica: _Replica, message) -> None:
        spans = getattr(message, "spans", ())
        if spans and self._tracer is not None:
            self._tracer.absorb(tuple(spans))
        if isinstance(message, ReadyReply):
            replica.ready_info = message
            replica.baseline_leases = message.residency.lease_events
            replica.baseline_reprograms = message.residency.reprogram_events
            replica.observe(message.residency)
            replica.ready.set()
        elif isinstance(message, FatalReply):
            replica.fatal = message
            replica.ready.set()
        elif isinstance(message, WaveReply):
            replica.observe(message.residency)
            for reply in message.replies:
                handle = self._take_pending(replica, reply.request_id)
                if handle is None:
                    continue
                latency = time.monotonic() - handle._submitted_at
                with self._lock:
                    replica.requests += 1
                    self._latencies_s.append(latency)
                handle._future.set_result(
                    ClusterResult(
                        request_id=reply.request_id,
                        replica=replica.replica_id,
                        logits=reply.logits,
                        images=reply.images,
                        wall_s=reply.wall_s,
                        latency_s=latency,
                    )
                )
        elif isinstance(message, WaveFailure):
            replica.observe(message.residency)
            for request_id in message.request_ids:
                handle = self._take_pending(replica, request_id)
                if handle is None:
                    continue
                with self._lock:
                    replica.failures += 1
                handle._future.set_exception(
                    RequestError(
                        f"request {request_id} failed on replica "
                        f"{replica.replica_id}: {message.cause}",
                        request_id=request_id,
                        replica=replica.replica_id,
                        cause=message.cause,
                    )
                )
        elif isinstance(message, StopReply):
            replica.observe(message.residency)
            replica.stopped = True

    def _take_pending(
        self, replica: _Replica, request_id: int
    ) -> Optional[RequestHandle]:
        with self._lock:
            handle = replica.pending.pop(request_id, None)
            if handle is not None:
                replica.settle()
        return handle

    def _mark_dead(self, replica: _Replica) -> None:
        """Fail the dead replica's in-flight requests; survivors keep serving."""
        replica.dead = True
        replica.ready.set()
        if not replica.process.is_alive():
            # Reap the corpse so the failure message carries the exit code.
            replica.process.join(0.2)
        with self._lock:
            pending = list(replica.pending.items())
            replica.pending.clear()
            replica.settle(len(pending))
            replica.failures += len(pending)
        graceful = replica.stopped
        for request_id, handle in pending:
            cause = (
                "worker stopped before serving the request"
                if graceful
                else f"worker process died (exit code {replica.channel.exitcode})"
            )
            handle._future.set_exception(
                RequestError(
                    f"request {request_id} lost: {cause}",
                    request_id=request_id,
                    replica=replica.replica_id,
                    cause=cause,
                )
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _normalize(self, images) -> np.ndarray:
        batch = np.asarray(images)
        if self.input_shape is not None and batch.ndim == len(self.input_shape):
            batch = batch[np.newaxis]
        return batch

    def _live_replicas(self) -> List[_Replica]:
        return [replica for replica in self._replicas if replica.alive]

    def _pick_replica(self) -> _Replica:
        live = self._live_replicas()
        if not live:
            raise ClusterError("no live replicas (all workers have exited)")
        with self._lock:
            if self.config.routing == "least-loaded":
                return min(
                    live, key=lambda replica: (replica.in_flight, replica.replica_id)
                )
            choice = live[self._round_robin % len(live)]
            self._round_robin += 1
        return choice

    def submit_wave(
        self,
        batches: Sequence[np.ndarray],
        *,
        replica: Optional[int] = None,
    ) -> List[RequestHandle]:
        """Route one continuous-batching wave of requests to a replica.

        The wave is served in a single resident pass on the chosen replica;
        each request still gets its own handle (and its own typed failure,
        if the wave dies).  An explicit ``replica`` pins the wave; otherwise
        the configured routing policy picks among live replicas.
        """
        if not batches:
            return []
        with self._lock:
            if self.closed:
                raise ClusterError("cluster is closed")
            if not self.started:
                raise ClusterError("cluster is not started; call start() first")
        if replica is not None:
            if not 0 <= replica < len(self._replicas):
                raise ClusterError(f"no such replica: {replica}")
            target = self._replicas[replica]
            if not target.alive:
                raise ClusterError(f"replica {replica} is not alive")
        else:
            target = self._pick_replica()
        items: List[WaveItem] = []
        handles: List[RequestHandle] = []
        now = time.monotonic()
        with self._lock:
            for images in batches:
                request_id = self._next_request
                self._next_request += 1
                handle = RequestHandle(
                    request_id=request_id,
                    replica=target.replica_id,
                    _future=Future(),
                    _submitted_at=now,
                )
                items.append(
                    WaveItem(
                        request_id=request_id, images=self._normalize(images)
                    )
                )
                target.pending[request_id] = handle
                handles.append(handle)
                self._submitted.append(handle)
            target.in_flight += len(handles)
            target.dispatches += len(handles)
            target.max_in_flight = max(target.max_in_flight, target.in_flight)
        try:
            target.channel.send_request(WaveRequest(items=tuple(items)))
        except (OSError, ValueError, BrokenPipeError) as error:
            # The replica died between routing and send: fail this wave's
            # requests (the reader thread reaps the rest of its pending).
            for handle in handles:
                taken = self._take_pending(target, handle.request_id)
                if taken is None:
                    continue
                with self._lock:
                    target.failures += 1
                handle._future.set_exception(
                    RequestError(
                        f"request {handle.request_id} could not reach replica "
                        f"{target.replica_id}: {error!r}",
                        request_id=handle.request_id,
                        replica=target.replica_id,
                        cause=repr(error),
                    )
                )
        return handles

    def submit(
        self, images, *, replica: Optional[int] = None
    ) -> RequestHandle:
        """Submit one request (a wave of one); returns its handle."""
        return self.submit_wave([images], replica=replica)[0]

    def infer(self, images) -> ClusterResult:
        """Submit one request and block for its result."""
        handle = self.submit(images)
        try:
            return handle.result(self.config.request_timeout_s)
        finally:
            with self._lock:
                if handle in self._submitted:
                    self._submitted.remove(handle)

    def gather(
        self,
        timeout: Optional[float] = None,
        *,
        return_exceptions: bool = False,
    ) -> List[Union[ClusterResult, RequestError]]:
        """Collect every outstanding request, in submission order.

        With ``return_exceptions`` each failed request yields its typed
        :class:`~repro.errors.RequestError` in place; otherwise the first
        failure is raised *after* every outstanding request has settled, so
        a partial failure never strands the survivors' results.
        """
        if timeout is None:
            timeout = self.config.request_timeout_s
        with self._lock:
            pending, self._submitted = self._submitted, []
        outcomes: List[Union[ClusterResult, RequestError]] = []
        first_error: Optional[BaseException] = None
        for handle in pending:
            try:
                outcomes.append(handle.result(timeout))
            except RequestError as error:
                outcomes.append(error)
                if first_error is None:
                    first_error = error
        if first_error is not None and not return_exceptions:
            raise first_error
        return outcomes

    def drain(self, timeout: Optional[float] = None) -> None:
        """Wait for every in-flight request to settle (without raising)."""
        if timeout is None:
            timeout = self.config.request_timeout_s
        with self._lock:
            pending = list(self._submitted)
        for replica in self._replicas:
            with self._lock:
                pending.extend(replica.pending.values())
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in pending:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                handle._future.exception(remaining)
            except TimeoutError:
                break
            except BaseException:  # noqa: BLE001 - drain never raises
                continue

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ClusterStats:
        """Per-replica serving counters and residency deltas."""
        replicas = []
        for replica in self._replicas:
            info = replica.ready_info
            replicas.append(
                ReplicaStats(
                    replica=replica.replica_id,
                    alive=replica.alive,
                    requests=replica.requests,
                    failures=replica.failures,
                    in_flight=replica.in_flight,
                    dispatches=replica.dispatches,
                    max_in_flight=replica.max_in_flight,
                    cold_leases=replica.cold_leases,
                    cold_reprograms=replica.cold_reprograms,
                    warm_hits=replica.warm_hits,
                    aps_pinned=info.aps_pinned if info else 0,
                    tile_programs=info.tile_programs if info else 0,
                )
            )
        return ClusterStats(replicas=tuple(replicas))

    def metrics_registry(self, registry=None):
        """Mirror cluster counters into a metrics registry (flat BENCH keys)."""
        from repro.telemetry.metrics import MetricsRegistry, record_request_latencies

        registry = registry if registry is not None else MetricsRegistry()
        stats = self.stats()
        registry.gauge("replicas", "configured worker replicas").set(
            len(self._replicas)
        )
        registry.gauge("replicas_live", "replicas still serving").set(
            stats.live_replicas
        )
        requests = registry.counter("requests_served", "requests served")
        failures = registry.counter("requests_failed", "requests failed")
        cold = registry.counter(
            "cold_lease_events", "post-deploy AP lease events"
        )
        for replica_stats in stats.replicas:
            if replica_stats.requests:
                requests.inc(replica_stats.requests, replica=replica_stats.replica)
            if replica_stats.failures:
                failures.inc(replica_stats.failures, replica=replica_stats.replica)
            if replica_stats.cold_leases:
                cold.inc(replica_stats.cold_leases, replica=replica_stats.replica)
        with self._lock:
            latencies = list(self._latencies_s)
        record_request_latencies(registry, latencies)
        return registry

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain, stop and join every replica; finalize the cluster trace.

        Graceful and idempotent: stops accepting new requests first, flushes
        in-flight waves, then walks every replica through the channel's
        stop/join ladder - even if an earlier stage raises.  Requests still
        unsettled after the workers are gone fail with a typed
        :class:`~repro.errors.RequestError`.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
        try:
            if self.started:
                self.drain()
        finally:
            try:
                for replica in self._replicas:
                    try:
                        replica.channel.close()
                    except Exception:  # noqa: BLE001 - close every replica
                        pass
                for replica in self._replicas:
                    if replica.reader is not None:
                        replica.reader.join(5.0)
                    self._mark_dead(replica)
            finally:
                self._finalize_trace()

    def _finalize_trace(self) -> None:
        """Flush the cluster-wide Chrome trace and release an owned tracer."""
        tracer = self._tracer
        if tracer is None:
            return
        path = self.config.trace_path
        if path is not None:
            telemetry.write_chrome_trace(path, tracer.events())
        if self._owns_tracer and telemetry.get_tracer() is tracer:
            telemetry.uninstall()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "started" if self.started else "created"
        return (
            f"<Cluster {self.config.display_name!r} "
            f"replicas={self.config.replicas} state={state}>"
        )
