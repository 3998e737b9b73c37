"""Metrics registry semantics and the ledger-mirroring adapters."""

import math

import pytest

from repro.cam.stats import CAMStats
from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    record_cam_stats,
    record_movement,
    record_queue_depth,
    record_request_latencies,
    record_residency,
    record_span_latencies,
)


class TestCounter:
    def test_inc_and_labels(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(4, layer="conv1")
        assert counter.value() == 1
        assert counter.value(layer="conv1") == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)


class TestHistogram:
    def test_summary_percentiles(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)

    def test_empty_percentile_is_nan(self):
        assert math.isnan(Histogram("latency").percentile(50))

    def test_window_keeps_most_recent(self):
        histogram = Histogram("latency", max_samples=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count() == 4  # total count includes evicted
        assert histogram.summary()["min"] == 2.0  # window dropped the oldest


class TestRegistry:
    def test_get_or_create_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_flat_schema(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(2, group="g0")
        registry.histogram("lat").observe(5.0)
        flat = registry.flat()
        assert flat["requests"] == 3
        assert flat["depth{group=g0}"] == 2
        assert flat["lat_count"] == 1
        assert flat["lat_p50"] == 5.0


class TestAdapters:
    def test_record_cam_stats(self):
        stats = CAMStats(search_phases=10, searched_bits=100, write_phases=5,
                         written_bits=50)
        registry = MetricsRegistry()
        record_cam_stats(registry, stats)
        flat = registry.flat()
        assert flat["cam_search_phases"] == 10
        assert flat["cam_written_bits"] == 50

    def test_record_residency(self):
        class Ledger:
            lease_events = 13
            reprogram_events = 13
            warm_hits = 99

        registry = MetricsRegistry()
        record_residency(registry, Ledger())
        flat = registry.flat()
        assert flat["cold_lease_events"] == 13
        assert flat["warm_dispatches"] == 99

    def test_record_movement_accepts_scope_mapping(self):
        class Cost:
            bits = 1024.0
            energy_fj = 2.5

        registry = MetricsRegistry()
        record_movement(registry, {"global": Cost()})
        flat = registry.flat()
        assert flat["movement_bits{scope=global}"] == 1024.0
        assert flat["movement_energy_fj{scope=global}"] == 2.5

    def test_record_span_latencies(self):
        from repro import telemetry
        from repro.telemetry.trace import Tracer

        tracer = Tracer()
        telemetry.install(tracer)
        try:
            with telemetry.span("device.layer", category="device",
                                track="ap-group/1", layer="conv1"):
                pass
            telemetry.complete("session.request", 0.0, 0.010, request_id=0)
        finally:
            telemetry.uninstall()
        registry = MetricsRegistry()
        record_span_latencies(registry, tracer.events())
        flat = registry.flat()
        assert flat["layer_latency_ms_count{layer=conv1}"] == 1
        assert flat["request_latency_ms_p50"] == pytest.approx(10.0)
        assert any(key.startswith("ap_group_busy_ms_") for key in flat)


    def test_record_queue_depth(self):
        registry = MetricsRegistry()
        record_queue_depth(registry, 3, capacity=8)
        flat = registry.flat()
        assert flat["queue_depth"] == 3
        assert flat["queue_capacity"] == 8

    def test_record_queue_depth_without_capacity(self):
        registry = MetricsRegistry()
        record_queue_depth(registry, 0, frontend="cluster")
        flat = registry.flat()
        assert flat["queue_depth{frontend=cluster}"] == 0
        assert not any(key.startswith("queue_capacity") for key in flat)

    def test_record_request_latencies(self):
        registry = MetricsRegistry()
        record_request_latencies(registry, [0.010, 0.020, 0.030])
        flat = registry.flat()
        assert flat["request_latency_ms_count"] == 3
        assert flat["request_latency_ms_p50"] == 20.0
        assert flat["request_latency_ms_max"] == 30.0

    def test_request_latencies_share_the_span_histogram(self):
        """Adapter and span-fold feed one request_latency_ms family."""
        registry = MetricsRegistry()
        record_request_latencies(registry, [0.005])
        histogram = registry.histogram("request_latency_ms")
        assert histogram.count() == 1
