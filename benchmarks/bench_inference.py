"""Batched end-to-end inference benchmark: real dataflow throughput gates.

Unlike :mod:`benchmarks.bench_batching` (which prices batching with the
*analytic* model), this benchmark runs the **real** batched dataflow: N
images' quantized activations chained layer-to-layer through tile programs on
the execution-plan runtime.  Three gates:

* **Determinism** - batched parallel execution produces byte-identical logits
  and CAMStats to the serial run (per-image activation streams are
  independent, reductions are order-independent).
* **Pool throughput** - processing a batch of 4 images on the ``parallel``
  (process-pool) executor with >= 4 workers must be at least 2x faster
  wall-clock than the serial run of the same batch, measured on the
  Python-heavy ``reference`` backend (the workload the pool exists for).
  The gate skips on hosts with fewer than 4 CPUs (CI provides the
  multi-core run).
* **Mega-kernel throughput** - the ``batched`` backend's whole-layer wave
  execution must beat its per-tile path (every wave declined, so each
  ``(image, tile)`` instance runs on its own AP) by >= 10x wall-clock on a
  width-scaled vgg9 batch (serial executor, identical logits and CAMStats).
  This is the headline speedup of the layer-wave refactor: the wave
  replaces ``images x tiles`` Python instruction loops with one batch
  of NumPy calls per lockstep group of instructions.  A traced rerun of
  the wave records its host staging vs device split (``host_s`` /
  ``device_s``, from the ``host.*`` and ``device.layer`` telemetry spans)
  in ``BENCH_inference.json``.

The full-width ResNet-18 run additionally records how long one real CIFAR-10
sized image takes end to end on the batched backend - the "full models in
seconds, not hours" claim - in ``BENCH_inference.json``.

All tests merge their metrics into the shared ``inference`` report, so
``BENCH_inference.json`` carries every gate's numbers plus the measuring
configuration (backend, workers, model width).
"""

import os
import time

import numpy as np
import pytest

from repro import telemetry
from repro.eval.reporting import format_table
from repro.inference import BatchedInference, engine, quantized_reference_forward
from repro.nn.models.resnet import build_resnet18
from repro.nn.models.vgg import build_vgg9

#: Batch size of the process-pool gate (amortizes the per-layer fan-out).
BATCH = 4
#: Channel-width multiplier: the vgg9 topology, narrow enough for exact
#: (every-slice) functional simulation at benchmark speed.
WIDTH = 1 / 8
#: Input spatial size (CIFAR-10 geometry shrunk once).
INPUT_SIZE = 16

#: Minimum serial/parallel wall-clock ratio accepted by the pool gate.
REQUIRED_SPEEDUP = 2.0
#: The pool gate measures the parallel executor at this worker count.
GATE_WORKERS = 4

#: Mega-kernel gate geometry: a thinner vgg9 and a large image batch, so the
#: per-tile baseline is dominated by exactly the per-(image, tile) dispatch
#: cost the wave removes, while the whole gate stays under a minute.
MEGA_WIDTH = 1 / 16
MEGA_BATCH = 96
#: Minimum per-tile/wave wall-clock ratio accepted by the wave gate.
REQUIRED_MEGA_SPEEDUP = 10.0

#: Wall-clock budget for one full-width ResNet-18 image on the batched
#: backend ("seconds, not hours").  The wave-native host dataflow moved
#: per-request lowering into engine setup and reads results as one batched
#: gather; a single-core dev box now measures ~44 s warm (was ~82 s).
RESNET_RUN_BUDGET_S = 45.0

INPUT_SHAPE = (3, INPUT_SIZE, INPUT_SIZE)

#: Metrics and report sections accumulated across this module's tests so the
#: shared ``inference`` report always carries every gate that ran.
_SECTIONS: list = []
_METRICS: dict = {}


def _save(save_report, **context):
    save_report("inference", "\n\n".join(_SECTIONS), data=dict(_METRICS), **context)


@pytest.fixture(scope="module")
def narrow_vgg9():
    return build_vgg9(
        num_classes=10,
        input_size=INPUT_SIZE,
        sparsity=0.85,
        rng=0,
        width_multiplier=WIDTH,
    )


@pytest.fixture(scope="module")
def images(ap_seed):
    rng = np.random.default_rng(ap_seed)
    return rng.uniform(0.0, 1.0, size=(BATCH,) + INPUT_SHAPE)


def _run(model, images, executor, workers=None, backend="reference", warm=None):
    driver = BatchedInference(
        model,
        INPUT_SHAPE,
        bits=4,
        executor=executor,
        workers=workers,
        backend=backend,
        name="vgg9-narrow",
    )
    try:
        if warm is not None:
            driver.run(warm)
        started = time.perf_counter()
        result = driver.run(images)
        return result, time.perf_counter() - started
    finally:
        driver.close()


def test_batched_dataflow_matches_reference(narrow_vgg9, images):
    """The batched AP dataflow reproduces the NumPy logits byte for byte."""
    result, _ = _run(narrow_vgg9, images, "serial", backend="batched")
    reference = quantized_reference_forward(narrow_vgg9, images, bits=4)
    assert np.array_equal(result.logits, reference)


def test_megakernel_speedup(ap_seed, save_report, monkeypatch):
    """Whole-layer waves must beat per-tile dispatch >= 10x, byte-identically.

    Both paths run the same width-scaled vgg9 batch on the ``batched``
    backend and the serial executor; the per-tile leg declines every wave.
    The warm-up image keeps one-time plan/compile work (shared by both
    paths) out of the measured window.
    """
    model = build_vgg9(
        num_classes=10,
        input_size=INPUT_SIZE,
        sparsity=0.85,
        rng=0,
        width_multiplier=MEGA_WIDTH,
    )
    rng = np.random.default_rng(ap_seed)
    batch = rng.uniform(0.0, 1.0, size=(MEGA_BATCH,) + INPUT_SHAPE)
    warm = batch[:1]

    monkeypatch.setattr(engine, "execute_program_wave", lambda *a, **k: None)
    per_tile, per_tile_s = _run(model, batch, "serial", backend="batched", warm=warm)
    monkeypatch.undo()
    batched, batched_s = _run(model, batch, "serial", backend="batched", warm=warm)

    assert np.array_equal(per_tile.logits, batched.logits)
    assert per_tile.execution.total_stats == batched.execution.total_stats
    assert per_tile.execution.checksum == batched.execution.checksum

    speedup = per_tile_s / max(batched_s, 1e-9)
    host_s, device_s, traced_s = _traced_wave(model, batch)
    _SECTIONS.append(
        format_table(
            ["path", "images", "wall (s)", "images/s", "speedup"],
            [
                [
                    "per-tile",
                    MEGA_BATCH,
                    f"{per_tile_s:.2f}",
                    f"{MEGA_BATCH / per_tile_s:.2f}",
                    "1.00x",
                ],
                [
                    "wave",
                    MEGA_BATCH,
                    f"{batched_s:.2f}",
                    f"{MEGA_BATCH / batched_s:.2f}",
                    f"{speedup:.2f}x",
                ],
            ],
            title=(
                f"mega-kernel wave: vgg9 topology at width x{MEGA_WIDTH:.4g}, "
                f"{MEGA_BATCH} images, serial executor (real activation dataflow)"
            ),
        )
        + f"\ntraced wave: host {host_s:.3f} s, device {device_s:.2f} s, "
        f"wall {traced_s:.2f} s (host.* / device.layer span time)"
    )
    _METRICS.update(
        {
            "megakernel_per_tile_wall_s": per_tile_s,
            "megakernel_batched_wall_s": batched_s,
            "megakernel_speedup": speedup,
            "megakernel_images": MEGA_BATCH,
            "megakernel_model_width": MEGA_WIDTH,
            "required_megakernel_speedup": REQUIRED_MEGA_SPEEDUP,
            "host_s": host_s,
            "device_s": device_s,
            "wave_host_wall_s": traced_s,
        }
    )
    _save(save_report, ap_backend="batched", workers=1, model_width=MEGA_WIDTH)

    assert speedup >= REQUIRED_MEGA_SPEEDUP, (
        f"batched mega-kernel is only {speedup:.2f}x faster than the "
        f"per-tile path (required: {REQUIRED_MEGA_SPEEDUP}x)"
    )


def _traced_wave(model, batch):
    """Host staging vs device seconds of one traced warm wave run.

    Traced separately from the timed run so tracing overhead never enters
    the speedup; ``host.plan`` and the warm-up stay outside the trace.
    """
    driver = BatchedInference(
        model,
        INPUT_SHAPE,
        bits=4,
        executor="serial",
        backend="batched",
        name="vgg9-narrow",
    )
    try:
        driver.run(batch[:1])
        tracer = telemetry.install()
        tracer.drain()
        try:
            started = time.perf_counter()
            driver.run(batch)
            wall_s = time.perf_counter() - started
            events = tracer.drain()
        finally:
            telemetry.uninstall()
    finally:
        driver.close()
    host_s, device_s = _host_device_seconds(events)
    return host_s, device_s, wall_s


def _host_device_seconds(events):
    """Split traced span time into disjoint host staging vs device seconds.

    ``host.plan`` is excluded: it runs once at engine construction, not per
    request, and the tracer is only installed for the measured run anyway.
    The backend charges its operand-load phase to ``host.stage`` from
    *inside* the ``device.layer`` span, so that nested host time is
    subtracted from the device total to keep the split disjoint.
    """
    host_us = 0.0
    nested_host_us = 0.0
    device_us = 0.0
    for event in events:
        duration = event.dur_us or 0.0
        if event.name.startswith("host.") and event.name != "host.plan":
            host_us += duration
            if event.name == "host.stage" and event.args.get("mode") in (
                "wave-load",
                "gather",
            ):
                nested_host_us += duration
        elif event.name == "device.layer":
            device_us += duration
    return host_us / 1e6, (device_us - nested_host_us) / 1e6


def test_resnet18_fullwidth_seconds(save_report):
    """One full-width ResNet-18 image must run in seconds on ``batched``."""
    model = build_resnet18(num_classes=10, sparsity=0.8, rng=0)
    rng = np.random.default_rng(0)
    image = rng.uniform(0.0, 1.0, size=(1, 3, 32, 32))

    setup_started = time.perf_counter()
    driver = BatchedInference(model, (3, 32, 32), bits=4, backend="batched")
    try:
        setup_s = time.perf_counter() - setup_started
        started = time.perf_counter()
        result = driver.run(image)
        run_s = time.perf_counter() - started
    finally:
        driver.close()

    expected = quantized_reference_forward(model, image, bits=4)
    assert np.array_equal(result.logits, expected)

    _SECTIONS.append(
        format_table(
            ["model", "width", "images", "setup (s)", "inference (s)"],
            [
                ["resnet18", "1.0 (full)", 1, f"{setup_s:.2f}", f"{run_s:.2f}"],
            ],
            title="full-width resnet18, single image, batched backend",
        )
    )
    _METRICS.update(
        {
            "resnet18_fullwidth_setup_s": setup_s,
            "resnet18_fullwidth_run_s": run_s,
            "resnet18_fullwidth_budget_s": RESNET_RUN_BUDGET_S,
        }
    )
    _save(save_report, ap_backend="batched", workers=1, model_width=1.0)

    assert run_s <= RESNET_RUN_BUDGET_S, (
        f"full-width resnet18 single-image inference took {run_s:.1f}s "
        f"(budget: {RESNET_RUN_BUDGET_S}s)"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < GATE_WORKERS,
    reason=f"batched throughput gate needs >= {GATE_WORKERS} CPUs",
)
def test_batched_throughput(narrow_vgg9, images, save_report):
    """Batch of 4 on >= 4 workers must be >= 2x faster than serial."""
    serial, serial_s = _run(narrow_vgg9, images, "serial")
    parallel, parallel_s = _run(narrow_vgg9, images, "parallel", workers=GATE_WORKERS)

    assert np.array_equal(serial.logits, parallel.logits)
    assert serial.execution.total_stats == parallel.execution.total_stats

    speedup = serial_s / max(parallel_s, 1e-9)
    _SECTIONS.append(
        format_table(
            ["executor", "workers", "images", "wall (s)", "images/s", "speedup"],
            [
                [
                    "serial",
                    1,
                    BATCH,
                    f"{serial_s:.2f}",
                    f"{BATCH / serial_s:.2f}",
                    "1.00x",
                ],
                [
                    "parallel",
                    GATE_WORKERS,
                    BATCH,
                    f"{parallel_s:.2f}",
                    f"{BATCH / parallel_s:.2f}",
                    f"{speedup:.2f}x",
                ],
            ],
            title=(
                f"batched inference: vgg9 topology at width x{WIDTH}, "
                f"{BATCH} images, reference backend (real activation dataflow)"
            ),
        )
    )
    _METRICS.update(
        {
            "serial_wall_s": serial_s,
            "parallel_wall_s": parallel_s,
            "speedup": speedup,
            "images": BATCH,
            "workers": GATE_WORKERS,
            "required_speedup": REQUIRED_SPEEDUP,
        }
    )
    _save(save_report, ap_backend="reference", workers=GATE_WORKERS, model_width=WIDTH)

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched parallel inference is only {speedup:.2f}x faster than "
        f"serial on {GATE_WORKERS} workers (required: {REQUIRED_SPEEDUP}x)"
    )
