"""The consolidated session configuration.

One :class:`SessionConfig` replaces the loose keyword surface of the legacy
free functions (``specs_for_network`` / ``compile_model`` /
``build_execution_plan``): everything a
:class:`~repro.session.session.Session` needs to compile a network once,
deploy its weights into CAM once and then serve requests is declared up
front, in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.ap.backends import resolve_backend
from repro.arch.config import ArchitectureConfig
from repro.errors import ConfigurationError
from repro.nn.layers import Module
from repro.runtime.executors import ExecutorSpec
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`~repro.session.session.Session` is built from.

    Attributes:
        model: a registry model name (``vgg9``/``vgg11``/``resnet18``) or an
            already-built module tree.
        width: channel-width multiplier for registry builds (reduced widths
            keep the topology but make functional simulation fast).
        sparsity: ternary weight sparsity for registry builds (the paper's
            setting per model when omitted).
        rng: weight RNG for registry builds.
        input_shape: un-batched input shape; required for module-tree models,
            taken from the registry for named ones.
        bits: activation precision (the paper evaluates 4 and 8).
        signed: signedness of the quantized activations.
        arch: architecture the session deploys onto; the paper's default
            configuration when omitted (grown automatically when
            ``auto_size`` is set and the resident deploy needs more APs).
        backend: functional AP execution backend (``reference`` /
            ``batched``); the process default when omitted.
        executor: tile executor (``serial``/``parallel``), class
            or instance - resolved once and reused by every request.
        workers: worker count for pool executors.
        slices: compile only this many input-channel slices per layer
            (statistics sampling).  A sampled session supports the synthetic
            :meth:`~repro.session.session.Session.run` path only - functional
            :meth:`~repro.session.session.Session.infer` needs every slice.
        layers: compile only the first N weight layers (synthetic runs only,
            for the same reason).
        seed: base seed of the deterministic synthetic tile inputs.
        name: plan/report name; derived from the model when omitted.
        keep_activations: keep per-layer quantized tensors in each inference
            result's activation store (debugging/tests).
        verify: statically verify the execution plan
            (:func:`repro.analysis.plan.verify_execution_plan`) during
            :meth:`~repro.session.session.Session.deploy`, failing with
            :class:`~repro.errors.AnalysisError` before anything is pinned.
        auto_size: grow the architecture (whole banks) when the
            weight-resident deploy needs more APs than configured.  When
            disabled, an oversubscribed deploy raises
            :class:`~repro.errors.CapacityError` instead.
        concurrency: serving-pool width for overlapping
            :meth:`~repro.session.session.Session.submit` requests - how
            many client requests may be in flight over the one pinned plan
            at the same time.
        trace: structured tracing.  ``False`` (default) leaves the process
            tracer untouched (single disabled-check fast path at every
            instrumentation site); ``True`` installs a tracer for the
            session's lifetime; a path string installs one *and* writes a
            Chrome-trace JSON there when the session closes.
        metrics: mirror the session's ledgers (CAM phase/bit counters,
            residency, movement, wall-clock histograms) into a
            :class:`~repro.telemetry.metrics.MetricsRegistry` exposed as
            :attr:`Session.metrics <repro.session.session.Session.metrics>`.
    """

    model: Union[str, Module] = "vgg9"
    width: Optional[float] = None
    sparsity: Optional[float] = None
    rng: RngLike = 0
    input_shape: Optional[Tuple[int, ...]] = None
    bits: int = 4
    signed: bool = False
    arch: Optional[ArchitectureConfig] = None
    backend: Optional[str] = None
    executor: ExecutorSpec = "serial"
    workers: Optional[int] = None
    slices: Optional[int] = None
    layers: Optional[int] = None
    seed: int = 0
    name: Optional[str] = None
    keep_activations: bool = False
    verify: bool = False
    auto_size: bool = True
    concurrency: int = 2
    trace: Union[bool, str] = False
    metrics: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.trace, (bool, str)):
            raise ConfigurationError(
                f"trace must be a bool or an output path, got {self.trace!r}"
            )
        if self.bits < 1:
            raise ConfigurationError(f"bits must be >= 1, got {self.bits}")
        if self.slices is not None and self.slices < 1:
            raise ConfigurationError(f"slices must be >= 1, got {self.slices}")
        if self.layers is not None and self.layers < 1:
            raise ConfigurationError(f"layers must be >= 1, got {self.layers}")
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.backend is not None:
            resolve_backend(self.backend)

    @property
    def functional(self) -> bool:
        """Whether the compiled session can serve real-activation inference.

        Slice sampling and layer truncation produce *statistical* programs;
        functional inference needs every input-channel slice of every layer.
        """
        return self.slices is None and self.layers is None

    @property
    def trace_enabled(self) -> bool:
        """Whether the session should install a tracer for its lifetime."""
        return bool(self.trace)

    @property
    def trace_path(self) -> Optional[str]:
        """Chrome-trace output path, when ``trace`` names one."""
        if isinstance(self.trace, str) and self.trace:
            return self.trace
        return None

    @property
    def display_name(self) -> str:
        """Report/plan name: explicit name, registry name or module name."""
        if self.name:
            return self.name
        if isinstance(self.model, str):
            return self.model
        name = getattr(self.model, "name", None)
        return name if isinstance(name, str) and name else "model"
