"""The consolidated cluster serving configuration.

One :class:`ClusterConfig` declares everything the cluster subsystem needs:
the model a replica deploys (the same fields a
:class:`~repro.session.config.SessionConfig` carries), how many worker
replicas to shard it across, and the front door's admission/batching knobs.
The per-replica session configuration is derived via :meth:`session_config`,
so a cluster replica is - by construction - configured exactly like the
single-process session the cluster's results are asserted byte-identical to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import ConfigurationError

#: Replica-routing policies the cluster understands.
ROUTING_POLICIES: Tuple[str, ...] = ("round-robin", "least-loaded")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`~repro.serving.cluster.Cluster` is built from.

    Attributes:
        model: registry model name (``vgg9``/``vgg11``/``resnet18``).  The
            cluster compiles in the parent process and ships the artifacts
            to every replica, so the model must be picklable; registry names
            always are.
        width: channel-width multiplier for registry builds.
        sparsity: ternary weight sparsity (the paper's setting per model
            when omitted).
        bits: activation precision.
        backend: functional AP execution backend (``reference`` /
            ``batched``); the process default when omitted.
        executor: per-replica tile executor *name* (``serial`` keeps one
            replica on one core - the data-parallel sharding is the
            replicas themselves).
        workers: worker count for pool executors inside one replica.
        seed: weight RNG / plan seed shared by every replica (replicas are
            data-parallel copies of the *same* deployment).
        name: report name; derived from the model when omitted.
        verify: statically verify each replica's execution plan on deploy.
        replicas: worker processes the resident plan is sharded across.
        queue_depth: bound of the front door's request queue (admission
            control rejects once it stays full).
        admission_timeout_s: how long admission waits for queue space
            before rejecting with
            :class:`~repro.errors.AdmissionError` (backpressure).
        max_wave: continuous batching - up to this many queued requests are
            coalesced into one wave for a replica's batched backend.
        routing: replica routing policy (``round-robin`` or
            ``least-loaded``).
        start_timeout_s: how long :meth:`~repro.serving.cluster.Cluster.start`
            waits for every replica's deploy barrier.
        request_timeout_s: default per-request wait in
            :meth:`~repro.serving.cluster.Cluster.gather` (``None`` waits
            forever; worker death still fails fast).
        trace: structured tracing - ``True`` installs a parent tracer and
            absorbs every replica's shipped span batches; a path string
            also writes one Chrome trace covering the whole cluster on
            close.
        metrics: mirror queue depth, request latencies and per-replica
            ledgers into a :class:`~repro.telemetry.metrics.MetricsRegistry`.
    """

    model: str = "vgg9"
    width: Optional[float] = None
    sparsity: Optional[float] = None
    bits: int = 4
    backend: Optional[str] = None
    executor: str = "serial"
    workers: Optional[int] = None
    seed: int = 0
    name: Optional[str] = None
    verify: bool = False
    replicas: int = 2
    queue_depth: int = 64
    admission_timeout_s: float = 0.5
    max_wave: int = 4
    routing: str = "round-robin"
    start_timeout_s: float = 300.0
    request_timeout_s: Optional[float] = 120.0
    trace: Union[bool, str] = False
    metrics: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.model, str):
            raise ConfigurationError(
                f"cluster models are registry names (module trees live in "
                f"one process; replicas need a picklable build recipe), "
                f"got {self.model!r}"
            )
        if not isinstance(self.executor, str):
            raise ConfigurationError(
                f"cluster executors are resolved by name inside each worker "
                f"process, got {self.executor!r}"
            )
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.max_wave < 1:
            raise ConfigurationError(
                f"max_wave must be >= 1, got {self.max_wave}"
            )
        if self.admission_timeout_s < 0:
            raise ConfigurationError(
                f"admission_timeout_s must be >= 0, got "
                f"{self.admission_timeout_s}"
            )
        if self.routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {self.routing!r}; "
                f"available: {', '.join(ROUTING_POLICIES)}"
            )
        if not isinstance(self.trace, (bool, str)):
            raise ConfigurationError(
                f"trace must be a bool or an output path, got {self.trace!r}"
            )

    @property
    def display_name(self) -> str:
        """Report name: explicit name or the registry model name."""
        return self.name or self.model

    @property
    def trace_enabled(self) -> bool:
        """Whether the cluster should install a parent tracer."""
        return bool(self.trace)

    @property
    def trace_path(self) -> Optional[str]:
        """Chrome-trace output path, when ``trace`` names one."""
        if isinstance(self.trace, str) and self.trace:
            return self.trace
        return None

    def session_config(self):
        """The per-replica session configuration this cluster deploys.

        Every replica is an exact data-parallel copy: same model, seed,
        backend and executor as the single-process session the cluster's
        logits are asserted byte-identical to.  Tracing and metrics stay
        off inside workers - replica spans are captured locally and shipped
        back to the parent tracer instead.
        """
        from repro.session.config import SessionConfig

        return SessionConfig(
            model=self.model,
            width=self.width,
            sparsity=self.sparsity,
            bits=self.bits,
            backend=self.backend,
            executor=self.executor,
            workers=self.workers,
            seed=self.seed,
            name=self.display_name,
            verify=self.verify,
        )
