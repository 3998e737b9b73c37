"""Telemetry: structured tracing, trace exporters, metrics and logging.

The runtime's measurement substrate (PR 8).  Three cooperating pieces:

* :mod:`repro.telemetry.trace` - nestable spans with stable attributes
  (``layer``, ``image``, ``tile``, ``ap``, ``backend``, ``executor``,
  ``request_id``), ring-buffered and thread-safe, with a no-op fast path
  when tracing is disabled and a capture/ship protocol for process-pool
  workers.
* :mod:`repro.telemetry.export` - Chrome trace-event JSON (Perfetto) and
  JSONL exporters plus a schema validator and a top-N span summary.
* :mod:`repro.telemetry.metrics` - a counter/gauge/histogram registry with
  labels and exact percentiles, plus adapters mirroring the runtime's
  existing ledgers (CAMStats, residency, movement, pipeline depth).

Instrumentation sites across the runtime call ``telemetry.span(...)`` /
``telemetry.instant(...)``; both are no-ops costing one module-global check
until a tracer is installed (``telemetry.install()``, ``--trace`` on the
CLI, or ``SessionConfig(trace=...)``).
"""

from repro.telemetry.export import (
    chrome_trace,
    read_jsonl,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.logs import LOG_ENV_VAR, configure_logging, get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_cam_stats,
    record_movement,
    record_queue_depth,
    record_request_latencies,
    record_residency,
    record_span_latencies,
)
from repro.telemetry.trace import (
    DEFAULT_CAPACITY,
    ActiveSpan,
    SpanEvent,
    Tracer,
    capture,
    complete,
    enabled,
    get_tracer,
    install,
    instant,
    iter_spans,
    span,
    uninstall,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "ActiveSpan",
    "SpanEvent",
    "Tracer",
    "capture",
    "complete",
    "enabled",
    "get_tracer",
    "install",
    "instant",
    "iter_spans",
    "span",
    "uninstall",
    "chrome_trace",
    "read_jsonl",
    "summarize_spans",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "LOG_ENV_VAR",
    "configure_logging",
    "get_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_cam_stats",
    "record_movement",
    "record_queue_depth",
    "record_request_latencies",
    "record_residency",
    "record_span_latencies",
]
