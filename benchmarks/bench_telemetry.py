"""Telemetry overhead gate: tracing must be free when off, honest when on.

Three claims, gated on the width-1/16 vgg9 wave workload:

1. **Disabled overhead <= 5%.**  Every instrumentation site performs one
   module-global check when tracing is off.  The gate microbenchmarks that
   disabled fast path, multiplies the per-call cost by the number of events
   an *enabled* run of the same workload actually records (an upper bound on
   instrumentation-site visits that also charges per-event recording cost to
   the disabled path), and requires the product to stay under 5% of the
   untraced wall-clock.
2. **Byte identity.**  The traced run's logits, CAM counters and residency
   ledger equal the untraced run's, bit for bit - instrumentation wraps
   work, it never touches the data path.
3. **Request overlap witness.**  A concurrent serve with tracing on yields
   >= 2 concurrently-open device spans on different threads - the Chrome
   trace visibly shows overlapping requests (skipped below 4 CPUs, like
   the pool speedup gates).
"""

import os
import time

import numpy as np
import pytest

from repro import telemetry
from repro.eval.reporting import format_table
from repro.nn.models.vgg import build_vgg9
from repro.session import Session

WORKERS = 4
IMAGES = 4
WIDTH = 1 / 16
INPUT_SHAPE = (3, 32, 32)

#: Maximum tolerated disabled-tracing overhead on the wave workload.
MAX_DISABLED_OVERHEAD = 0.05

#: Iterations of the disabled fast-path microbenchmark.
MICRO_ITERATIONS = 200_000

requires_cpus = pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"trace overlap witness needs >= {WORKERS} CPUs",
)


@pytest.fixture(scope="module")
def narrow_vgg9():
    return build_vgg9(
        num_classes=10, input_size=32, sparsity=0.85, rng=0,
        width_multiplier=WIDTH,
    )


@pytest.fixture(scope="module")
def image_batch(ap_seed):
    rng = np.random.default_rng(ap_seed)
    return rng.uniform(0.0, 1.0, size=(IMAGES,) + INPUT_SHAPE)


def _serve(narrow_vgg9, images, *, trace: bool):
    with Session(
        model=narrow_vgg9,
        input_shape=INPUT_SHAPE,
        bits=4,
        backend="batched",
        executor="thread",
        workers=WORKERS,
        name="vgg9-wave",
        trace=trace,
    ) as session:
        session.compile().deploy()
        session.infer(images[:2])  # warm-up: pool spin-up, lazy allocations
        started = time.perf_counter()
        result = session.infer(images)
        wall_s = time.perf_counter() - started
        residency = (
            session.residency.lease_events,
            session.residency.reprogram_events,
            session.residency.warm_hits,
        )
        events = session.trace_events()
    return result, wall_s, residency, events


def test_disabled_overhead_under_five_percent(
    narrow_vgg9, image_batch, save_report
):
    """Per-site disabled cost x enabled-run event count <= 5% of the wall."""
    telemetry.uninstall()

    untraced_result, untraced_wall, untraced_residency, no_events = _serve(
        narrow_vgg9, image_batch, trace=False
    )
    assert no_events == []
    traced_result, traced_wall, traced_residency, events = _serve(
        narrow_vgg9, image_batch, trace=True
    )

    # Byte identity: tracing changed nothing but observability.
    assert np.array_equal(traced_result.logits, untraced_result.logits)
    assert traced_result.logits.tobytes() == untraced_result.logits.tobytes()
    assert (
        traced_result.execution.total_stats
        == untraced_result.execution.total_stats
    )
    assert traced_residency == untraced_residency

    # Microbenchmark the disabled fast path (span open+close and instant).
    assert not telemetry.enabled()
    started = time.perf_counter()
    for _ in range(MICRO_ITERATIONS):
        with telemetry.span("bench.site", layer=1):
            pass
    span_s = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(MICRO_ITERATIONS):
        telemetry.instant("bench.site", reason="x")
    instant_s = time.perf_counter() - started
    per_call_s = max(span_s, instant_s) / MICRO_ITERATIONS

    # Charge every event the enabled run recorded as one disabled-path call.
    site_visits = len(events)
    projected_overhead_s = per_call_s * site_visits
    overhead_fraction = projected_overhead_s / max(untraced_wall, 1e-9)

    text = format_table(
        ["quantity", "value"],
        [
            ["untraced wall (s)", f"{untraced_wall:.4f}"],
            ["traced wall (s)", f"{traced_wall:.4f}"],
            ["events recorded (traced)", site_visits],
            ["disabled cost / site (ns)", f"{per_call_s * 1e9:.0f}"],
            ["projected disabled overhead (s)", f"{projected_overhead_s:.6f}"],
            ["overhead fraction", f"{overhead_fraction * 100:.3f}%"],
            ["allowed fraction", f"{MAX_DISABLED_OVERHEAD * 100:.1f}%"],
        ],
        title=(
            f"telemetry overhead: vgg9 at width x{WIDTH}, {IMAGES} images, "
            f"thread executor x{WORKERS}, batched backend"
        ),
    )
    save_report(
        "telemetry",
        text,
        data={
            "images": IMAGES,
            "workers": WORKERS,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "events_recorded": site_visits,
            "disabled_cost_per_site_ns": per_call_s * 1e9,
            "disabled_overhead_fraction": overhead_fraction,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "traced_equals_untraced": True,
        },
        ap_backend="batched",
        workers=WORKERS,
        model_width=WIDTH,
    )

    assert overhead_fraction <= MAX_DISABLED_OVERHEAD, (
        f"disabled tracing costs {overhead_fraction * 100:.2f}% of the "
        f"untraced wall (allowed: {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )


@requires_cpus
def test_trace_shows_pipeline_overlap(narrow_vgg9, image_batch, tmp_path):
    """Concurrent serve: >= 2 device spans open at once on disjoint tracks."""
    out = tmp_path / "overlap_trace.json"
    with Session(
        model=narrow_vgg9,
        input_shape=INPUT_SHAPE,
        bits=4,
        executor="thread",
        workers=WORKERS,
        concurrency=4,
        name="vgg9-wave",
        trace=str(out),
    ) as session:
        session.compile().deploy()
        for request in range(4):
            session.submit(image_batch[request % IMAGES : request % IMAGES + 2])
        session.gather()
    import json

    payload = json.loads(out.read_text())
    assert telemetry.validate_chrome_trace(payload) == []
    spans = [
        (event["ts"], event["ts"] + event["dur"], event["tid"])
        for event in payload["traceEvents"]
        if event["ph"] == "X" and event["name"] == "device.layer"
    ]
    overlapped = any(
        t1 != t2 and max(s1, s2) < min(e1, e2)
        for i, (s1, e1, t1) in enumerate(spans)
        for (s2, e2, t2) in spans[i + 1 :]
    )
    assert overlapped, (
        "no two device.layer spans were concurrently open on disjoint "
        "ap-group tracks"
    )
