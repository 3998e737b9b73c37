"""Inter-layer dataflow determinism across executors and backends.

The inference engine's contract extends the runtime's: because per-tile
partial sums are exact integers and every reduction (integer sums, per-round
maxima) is order-independent, the {serial, parallel, thread} executors and
the {reference, vectorized, batched} backends must produce byte-identical
logits *and* byte-identical aggregated CAMStats for the same images.  The
``batched`` rows additionally exercise the layer-wave fast path (one
mega-kernel per layer) against the per-tile baselines.
"""

import numpy as np
import pytest

EXECUTORS = ("serial", "parallel", "thread")
BACKENDS = ("reference", "vectorized", "batched")


@pytest.fixture(scope="module")
def tiny_images(tiny_cnn, images_rng):
    _, input_shape = tiny_cnn
    return images_rng.uniform(0.0, 1.0, size=(2,) + input_shape)


@pytest.fixture(scope="module")
def baseline(serve, tiny_cnn, tiny_images):
    model, _ = tiny_cnn
    return serve(
        model, tiny_images, bits=4, executor="serial", backend="vectorized"
    )


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_logits_and_stats_byte_identical(
    serve, tiny_cnn, tiny_images, baseline, executor, backend
):
    model, _ = tiny_cnn
    result = serve(
        model, tiny_images, bits=4, executor=executor, workers=2, backend=backend
    )
    assert np.array_equal(result.logits, baseline.logits)
    assert result.checksum == baseline.checksum
    assert result.execution.total_stats == baseline.execution.total_stats
    for left, right in zip(result.execution.layers, baseline.execution.layers):
        assert left.stats == right.stats, f"layer {left.name} diverged"
        assert left.checksum == right.checksum


def test_executors_agree_on_residual_topology(serve, resnet18_narrow, images_rng):
    """The layer barrier chain holds for residual models too."""
    model, input_shape = resnet18_narrow
    images = images_rng.uniform(0.0, 1.0, size=(1,) + input_shape)
    serial = serve(model, images, bits=4, executor="serial")
    threaded = serve(model, images, bits=4, executor="thread", workers=4)
    assert np.array_equal(serial.logits, threaded.logits)
    assert serial.execution.total_stats == threaded.execution.total_stats


def test_micro_batch_interleaving_deterministic(serve, tiny_cnn, tiny_images):
    """Chunked pool execution reproduces the one-shot batch exactly."""
    model, _ = tiny_cnn
    whole = serve(model, tiny_images, bits=4, executor="thread", workers=2)
    chunked = serve(
        model, tiny_images, bits=4, executor="thread", workers=2, batch=1
    )
    assert np.array_equal(whole.logits, chunked.logits)
    assert whole.execution.total_stats == chunked.execution.total_stats
