"""Unified metrics registry: counters, gauges and histograms with labels.

One registry collects what PRs 2-7 kept in separate ad-hoc ledgers - CAM
phase counters (:class:`~repro.cam.stats.CAMStats`), residency warm/cold
events, interconnect movement, pipeline in-flight depth - alongside the new
wall-clock histograms (per-layer latency, per-request p50/p95/p99, pipeline
occupancy per AP group).  The adapters at the bottom of this module mirror
the existing ledger objects into the registry by duck typing, so the ledgers
stay the source of truth on the hot path and the registry is a read-out.

Schema: :meth:`MetricsRegistry.flat` renders every sample as one key/value
pair - unlabeled samples keep the bare metric name, labeled samples append
``{k=v,...}`` - which is the shape the ``BENCH_*.json`` ``metrics`` object
and ``repro serve --json`` already use, so the benchmark trajectory stays
comparable across PRs.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_cam_stats",
    "record_residency",
    "record_movement",
    "record_queue_depth",
    "record_request_latencies",
    "record_span_latencies",
]

#: Canonical label identity: sorted (key, value-as-str) pairs.
LabelKey = Tuple[Tuple[str, str], ...]

Number = Union[int, float]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _label_suffix(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{name}={value}" for name, value in key) + "}"


class _Metric:
    """Shared bookkeeping for one named metric family."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Counter(_Metric):
    """Monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, Number] = {}

    def inc(self, amount: Number = 1, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> Number:
        """Current count of the labeled series (0 if never incremented)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def samples(self) -> Dict[LabelKey, Number]:
        """Snapshot of every labeled series."""
        with self._lock:
            return dict(self._values)


class Gauge(_Metric):
    """Point-in-time value, optionally split by labels."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, Number] = {}

    def set(self, value: Number, **labels: Any) -> None:
        """Record the current value of the labeled series."""
        with self._lock:
            self._values[_label_key(labels)] = value

    def add(self, amount: Number, **labels: Any) -> None:
        """Adjust the labeled series by ``amount`` (gauges may go down)."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> Optional[Number]:
        """Current value of the labeled series (``None`` if never set)."""
        with self._lock:
            return self._values.get(_label_key(labels))

    def samples(self) -> Dict[LabelKey, Number]:
        """Snapshot of every labeled series."""
        with self._lock:
            return dict(self._values)


class Histogram(_Metric):
    """Sample distribution with exact percentiles, optionally labeled.

    Samples are retained (bounded by ``max_samples`` per series, keeping the
    most recent window) so percentiles are computed exactly over the window
    rather than from fixed buckets - the sample counts here (requests,
    layers) are thousands, not millions.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", max_samples: int = 65_536
    ) -> None:
        super().__init__(name, help)
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._samples: Dict[LabelKey, List[float]] = {}
        self._counts: Dict[LabelKey, int] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: Number, **labels: Any) -> None:
        """Record one sample into the labeled series."""
        key = _label_key(labels)
        with self._lock:
            window = self._samples.setdefault(key, [])
            window.append(float(value))
            if len(window) > self.max_samples:
                del window[0]
            self._counts[key] = self._counts.get(key, 0) + 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels: Any) -> int:
        """Total observations of the labeled series (including evicted)."""
        with self._lock:
            return self._counts.get(_label_key(labels), 0)

    def percentile(self, q: float, **labels: Any) -> float:
        """Exact q-th percentile (0-100, linear interpolation) of the window."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            window = sorted(self._samples.get(_label_key(labels), ()))
        if not window:
            return math.nan
        if len(window) == 1:
            return window[0]
        position = (len(window) - 1) * (q / 100.0)
        low = int(math.floor(position))
        high = min(low + 1, len(window) - 1)
        fraction = position - low
        return window[low] * (1.0 - fraction) + window[high] * fraction

    def summary(self, **labels: Any) -> Dict[str, float]:
        """count/sum/min/max/mean/p50/p95/p99 of the labeled series."""
        key = _label_key(labels)
        with self._lock:
            window = list(self._samples.get(key, ()))
            count = self._counts.get(key, 0)
            total = self._sums.get(key, 0.0)
        if not window:
            return {"count": 0, "sum": 0.0}
        ordered = sorted(window)

        def _pct(q: float) -> float:
            position = (len(ordered) - 1) * (q / 100.0)
            low = int(math.floor(position))
            high = min(low + 1, len(ordered) - 1)
            fraction = position - low
            return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

        return {
            "count": count,
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / len(ordered),
            "p50": _pct(50.0),
            "p95": _pct(95.0),
            "p99": _pct(99.0),
        }

    def samples(self) -> Dict[LabelKey, List[float]]:
        """Snapshot of the retained sample windows."""
        with self._lock:
            return {key: list(window) for key, window in self._samples.items()}

    def label_keys(self) -> List[LabelKey]:
        """The labeled series observed so far."""
        with self._lock:
            return list(self._samples)


class MetricsRegistry:
    """Named collection of counters, gauges and histograms.

    ``counter()``/``gauge()``/``histogram()`` get-or-create by name (a name
    registered as one kind cannot be re-registered as another); ``flat()``
    renders the whole registry into the flat key/value schema shared by
    ``BENCH_*.json`` and ``repro serve --json``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, **kwargs: Any) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {kind.kind}"  # type: ignore[attr-defined]
                    )
                return existing
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        metric = self._get_or_create(name, Counter, help=help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge."""
        metric = self._get_or_create(name, Gauge, help=help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self, name: str, help: str = "", max_samples: int = 65_536
    ) -> Histogram:
        """Get or create the named histogram."""
        metric = self._get_or_create(
            name, Histogram, help=help, max_samples=max_samples
        )
        assert isinstance(metric, Histogram)
        return metric

    def metrics(self) -> List[_Metric]:
        """Snapshot of every registered metric (registration order)."""
        with self._lock:
            return list(self._metrics.values())

    def flat(self) -> Dict[str, Any]:
        """Flatten every sample to ``name[{labels}]`` -> value.

        Counters and gauges emit their value directly; histograms emit
        ``name_count``/``name_sum``/``name_p50``/``name_p95``/``name_p99``
        plus min/max/mean per labeled series.
        """
        flat: Dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, (Counter, Gauge)):
                for key, value in metric.samples().items():
                    flat[metric.name + _label_suffix(key)] = value
            elif isinstance(metric, Histogram):
                for key in metric.label_keys():
                    labels = dict(key)
                    summary = metric.summary(**labels)
                    suffix = _label_suffix(key)
                    for stat, value in summary.items():
                        flat[f"{metric.name}_{stat}{suffix}"] = value
        return flat

    def to_dict(self) -> Dict[str, Any]:
        """Structured dump: one entry per metric with kind, help and samples."""
        dump: Dict[str, Any] = {}
        for metric in self.metrics():
            entry: Dict[str, Any] = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, (Counter, Gauge)):
                entry["samples"] = {
                    _label_suffix(key) or "": value
                    for key, value in metric.samples().items()
                }
            elif isinstance(metric, Histogram):
                entry["samples"] = {
                    _label_suffix(key) or "": metric.summary(**dict(key))
                    for key in metric.label_keys()
                }
            dump[metric.name] = entry
        return dump


# ----------------------------------------------------------------------
# Ledger adapters: mirror the runtime's existing accounting objects into a
# registry.  Duck-typed on purpose - telemetry must not import the runtime
# (the runtime imports telemetry), and the adapters then also accept the
# plain dataclasses used in tests.
# ----------------------------------------------------------------------
def record_cam_stats(
    registry: MetricsRegistry, stats: Any, **labels: Any
) -> None:
    """Mirror a :class:`~repro.cam.stats.CAMStats` ledger into counters."""
    fields = (
        "search_phases",
        "searched_bits",
        "write_phases",
        "written_bits",
        "lockstep_shift_steps",
        "track_shifts",
        "read_bits",
        "loaded_bits",
    )
    for name in fields:
        value = getattr(stats, name, None)
        if value:
            registry.counter(f"cam_{name}").inc(value, **labels)


def record_residency(
    registry: MetricsRegistry, ledger: Any, **labels: Any
) -> None:
    """Mirror a residency ledger (lease/reprogram/warm events) into counters."""
    mapping = (
        ("lease_events", "cold_lease_events"),
        ("reprogram_events", "cam_reprogram_events"),
        ("warm_hits", "warm_dispatches"),
    )
    for attribute, metric in mapping:
        value = getattr(ledger, attribute, 0)
        if value:
            registry.counter(metric).inc(value, **labels)


def record_movement(
    registry: MetricsRegistry, movement: Any, **labels: Any
) -> None:
    """Mirror an interconnect movement ledger (bits moved per link class).

    Accepts either the accelerator's ``{TransferScope: TransferCost}``
    mapping (:meth:`~repro.arch.accelerator.Accelerator.movement_ledger`) or
    any object exposing per-class ``*_bits`` attributes.
    """
    if isinstance(movement, Mapping):
        for scope, cost in movement.items():
            scope_label = getattr(scope, "value", scope)
            bits = getattr(cost, "bits", None)
            if bits:
                registry.counter("movement_bits").inc(
                    bits, scope=scope_label, **labels
                )
            energy = getattr(cost, "energy_fj", None)
            if energy:
                registry.counter("movement_energy_fj").inc(
                    energy, scope=scope_label, **labels
                )
        return
    for name in ("input_bits", "output_bits", "weight_bits", "adder_tree_bits"):
        value = getattr(movement, name, None)
        if value:
            registry.counter(f"movement_{name}").inc(value, **labels)


def record_span_latencies(
    registry: MetricsRegistry, events: Iterable[Any]
) -> None:
    """Fold trace spans into the wall-clock histograms.

    ``device.layer`` spans feed the per-layer latency histogram (labeled by
    layer), ``session.request`` spans feed the per-request latency histogram
    whose summary carries p50/p95/p99, and spans with an ``ap-group/N``
    track feed the per-group occupancy histogram.
    """
    layer_latency = registry.histogram(
        "layer_latency_ms", "wall-clock per device.layer span"
    )
    request_latency = registry.histogram(
        "request_latency_ms", "wall-clock per served request"
    )
    group_busy = registry.histogram(
        "ap_group_busy_ms", "device-span wall-clock per AP group track"
    )
    for event in events:
        if getattr(event, "phase", None) != "X":
            continue
        duration_ms = event.dur_us / 1e3
        if event.name == "device.layer":
            layer = event.args.get("layer", "?")
            layer_latency.observe(duration_ms, layer=layer)
        elif event.name == "session.request":
            request_latency.observe(duration_ms)
        track = getattr(event, "track", None)
        if track is not None and track.startswith("ap-group/"):
            group_busy.observe(duration_ms, group=track.split("/", 1)[1])


def record_queue_depth(
    registry: MetricsRegistry,
    depth: int,
    *,
    capacity: Optional[int] = None,
    **labels: Any,
) -> None:
    """Mirror a bounded queue's current depth (and bound) as gauges.

    The serving front door calls this with its admission queue so
    ``repro cluster --metrics`` reports backpressure in the same flat
    schema as every other gauge (``queue_depth`` / ``queue_capacity``).
    """
    registry.gauge("queue_depth", "requests waiting in the bounded queue").set(
        depth, **labels
    )
    if capacity is not None:
        registry.gauge("queue_capacity", "bound of the request queue").set(
            capacity, **labels
        )


def record_request_latencies(
    registry: MetricsRegistry,
    latencies_s: Iterable[Number],
    **labels: Any,
) -> None:
    """Fold request latencies (seconds) into the request-latency histogram.

    Feeds the same ``request_latency_ms`` family that
    :func:`record_span_latencies` fills from ``session.request`` spans, so
    single-process and cluster serving share one latency schema
    (``request_latency_ms_p50``/``_p95``/``_p99`` in ``flat()``).
    """
    histogram = registry.histogram(
        "request_latency_ms", "wall-clock per served request"
    )
    for latency in latencies_s:
        histogram.observe(float(latency) * 1e3, **labels)
