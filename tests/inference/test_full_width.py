"""Full-width benchmark topologies on the mega-kernel (``batched``) backend.

The narrow fixtures in this directory keep tier-1 fast; these runs execute
the paper's networks at **full channel width** - the configuration the
batched backend was built to make tractable ("seconds, not hours").  They
are marked ``full_width`` and skipped unless ``REPRO_FULL_WIDTH=1`` is set:
the full-width ResNet-18 plan/compile alone takes ~3 minutes on one core
(see ``benchmarks/bench_inference.py`` for the timed variant that lands in
``BENCH_inference.json``).
"""

import numpy as np
import pytest

from repro.inference import BatchedInference, engine, quantized_reference_forward
from repro.nn.models.resnet import build_resnet18
from repro.nn.models.vgg import build_vgg9
from repro.session import Session

pytestmark = [pytest.mark.slow, pytest.mark.full_width]

INPUT_SHAPE = (3, 32, 32)


@pytest.fixture(scope="module")
def image_rng():
    return np.random.default_rng(7)


def test_vgg9_full_width_batched_byte_identical(image_rng):
    """Full-width VGG-9, one CIFAR-sized image, explicit batched backend."""
    model = build_vgg9(num_classes=10, input_size=32, sparsity=0.85, rng=0)
    images = image_rng.uniform(0.0, 1.0, size=(1,) + INPUT_SHAPE)
    driver = BatchedInference(
        model, INPUT_SHAPE, bits=4, backend="batched", name="vgg9-full"
    )
    try:
        result = driver.run(images)
    finally:
        driver.close()
    expected = quantized_reference_forward(model, images, bits=4)
    assert np.array_equal(result.logits, expected)


def test_resnet18_full_width_session_batched(image_rng):
    """Full-width ResNet-18 served from a weight-resident batched session."""
    model = build_resnet18(num_classes=10, sparsity=0.8, rng=0)
    images = image_rng.uniform(0.0, 1.0, size=(1,) + INPUT_SHAPE)
    with Session(
        model=model, input_shape=INPUT_SHAPE, bits=4, backend="batched"
    ) as session:
        session.compile().deploy()
        result = session.infer(images)
    expected = quantized_reference_forward(
        model, images, bits=4, input_shape=INPUT_SHAPE
    )
    assert np.array_equal(result.logits, expected)


def test_vgg9_full_width_host_dataflow_modes(image_rng, monkeypatch):
    """Staged waves vs per-(image, tile) dispatch (every wave declined) at
    full width: byte-identical logits, checksum and aggregate CAMStats on
    the same driver workload."""
    model = build_vgg9(num_classes=10, input_size=32, sparsity=0.85, rng=0)
    images = image_rng.uniform(0.0, 1.0, size=(2,) + INPUT_SHAPE)
    results = {}
    for mode in ("wave", "declined"):
        if mode == "declined":
            monkeypatch.setattr(
                engine, "execute_program_wave", lambda *a, **k: None
            )
        driver = BatchedInference(
            model, INPUT_SHAPE, bits=4, backend="batched", name="vgg9-full"
        )
        try:
            results[mode] = driver.run(images)
        finally:
            driver.close()
    wave, per_instance = results["wave"], results["declined"]
    assert np.array_equal(wave.logits, per_instance.logits)
    assert wave.checksum == per_instance.checksum
    assert wave.execution.total_stats == per_instance.execution.total_stats
    expected = quantized_reference_forward(model, images, bits=4)
    assert np.array_equal(wave.logits, expected)
