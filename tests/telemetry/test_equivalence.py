"""Tracing must never change a result: byte-identity on vs. off.

Instrumentation wraps work - it never touches the data path - so a traced
run must produce byte-identical logits, CAM counters and residency ledgers
to an untraced one, on every executor x backend combination.  The process
executor additionally ships its workers' spans back to the parent, which
must not perturb results either.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.inference import engine
from repro.session.session import Session


@pytest.fixture(autouse=True)
def clean_tracer():
    telemetry.uninstall()
    yield
    telemetry.uninstall()


def _run(tiny_cnn, *, executor, backend, trace):
    model, input_shape = tiny_cnn
    rng = np.random.default_rng(7)
    images = rng.random((2,) + input_shape, dtype=np.float32)
    with Session(
        model=model,
        input_shape=input_shape,
        executor=executor,
        backend=backend,
        workers=2,
        trace=trace,
    ) as session:
        session.compile().deploy()
        result = session.infer(images)
        stats = result.execution.total_stats
        residency = (
            session.residency.lease_events,
            session.residency.reprogram_events,
            session.residency.warm_hits,
        )
        events = session.trace_events()
    return result.logits.tobytes(), stats, residency, events


@pytest.mark.parametrize("executor", ["serial", "parallel"])
@pytest.mark.parametrize("backend", ["reference", "batched"])
def test_traced_run_is_byte_identical(tiny_cnn, executor, backend):
    baseline_logits, baseline_stats, baseline_residency, no_events = _run(
        tiny_cnn, executor=executor, backend=backend, trace=False
    )
    traced_logits, traced_stats, traced_residency, events = _run(
        tiny_cnn, executor=executor, backend=backend, trace=True
    )
    assert no_events == []
    assert traced_logits == baseline_logits
    assert traced_stats == baseline_stats
    assert traced_residency == baseline_residency
    names = {event.name for event in events}
    assert "session.compile" in names
    assert "session.deploy" in names
    assert "session.request" in names
    assert "device.layer" in names


def test_process_executor_ships_worker_spans(tiny_cnn, monkeypatch):
    """Spans recorded inside pool workers surface in the parent's tracer."""
    # Waves never reach the executor: decline them so every tile is a task.
    monkeypatch.setattr(engine, "execute_program_wave", lambda *a, **k: None)
    _, _, _, events = _run(
        tiny_cnn, executor="parallel", backend="batched", trace=True
    )
    import os

    pids = {event.pid for event in events if event.name == "device.tile"}
    assert pids, "no device.tile spans collected"
    # Tile work ran in pool workers; their spans were shipped back with the
    # results and absorbed into the parent tracer.
    assert any(pid != os.getpid() for pid in pids)
    # Shipped spans share the parent's monotonic clock (fork), so they nest
    # inside the request span's window.
    request = next(e for e in events if e.name == "session.request")
    tiles = [e for e in events if e.name == "device.tile"]
    assert all(tile.ts_us >= request.ts_us - 1.0 for tile in tiles)
    assert all(tile.end_us <= request.end_us + 1.0 for tile in tiles)


def test_overlapping_requests_place_layers_on_ap_group_tracks(tiny_cnn):
    model, input_shape = tiny_cnn
    rng = np.random.default_rng(9)
    images = rng.random((3,) + input_shape, dtype=np.float32)
    with Session(
        model=model,
        input_shape=input_shape,
        concurrency=2,
        trace=True,
    ) as session:
        session.compile().deploy()
        baseline = session.infer(images)
        session.submit(images)
        session.submit(images)
        overlapped = session.gather()
        events = session.trace_events()
    for result in overlapped:
        assert result.logits.tobytes() == baseline.logits.tobytes()
    tracks = {
        event.track
        for event in events
        if event.name == "device.layer" and event.track
    }
    assert len(tracks) >= 2
    assert all(track.startswith("ap-group/") for track in tracks)
