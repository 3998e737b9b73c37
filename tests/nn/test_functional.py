"""Tests for the NumPy reference operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelDefinitionError
from repro.nn import functional as F


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, w, stride=1, padding=1)
        assert np.allclose(out, x)

    def test_bias_added(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = np.zeros((3, 2, 1, 1))
        bias = np.array([1.0, 2.0, 3.0])
        out = F.conv2d(x, w, bias=bias)
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 2], 3.0)

    def test_stride_and_padding_shapes(self, rng):
        x = rng.normal(size=(2, 3, 32, 32))
        w = rng.normal(size=(8, 3, 3, 3))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 8, 16, 16)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ModelDefinitionError):
            F.conv2d(rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(1, 3, 3, 3)))

    def test_integer_inputs_stay_exact(self):
        x = np.arange(2 * 16, dtype=np.int64).reshape(1, 2, 4, 4)
        w = np.ones((1, 2, 2, 2), dtype=np.int64)
        out = F.conv2d(x, w)
        assert out.dtype.kind in "i"
        assert out[0, 0, 0, 0] == x[0, :, 0:2, 0:2].sum()


class TestLinear:
    def test_matches_matmul(self, rng):
        x = rng.normal(size=(4, 8))
        w = rng.normal(size=(3, 8))
        b = rng.normal(size=3)
        assert np.allclose(F.linear(x, w, b), x @ w.T + b)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ModelDefinitionError):
            F.linear(rng.normal(size=(4, 8)), rng.normal(size=(3, 9)))


class TestActivationsAndPooling:
    def test_relu(self):
        assert np.array_equal(F.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_max_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == 5.0
        assert out[0, 0, 1, 1] == 15.0

    def test_avg_pool(self):
        x = np.ones((1, 2, 4, 4))
        out = F.avg_pool2d(x, 2)
        assert np.allclose(out, 1.0)

    def test_max_pool_with_stride(self):
        x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
        out = F.max_pool2d(x, 3, stride=2)
        assert out.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("stride", [None, 1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 4), st.integers(1, 32), st.integers(1, 6), st.integers(1, 6)
        ),
        extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_max_pool_equals_window_loop(self, kernel, stride, shape, extra, dtype, seed):
        """Byte-equal to the window loop on every shape: ties of ``-0.0``
        and ``0.0``, infinities, and inputs that 2x2 windows tile or not."""
        batch, channels, rows, columns = shape
        size = (batch, channels, rows * kernel + extra[0], columns * kernel + extra[1])
        values = np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, np.inf, -np.inf])
        if dtype is np.int64:
            values = np.array([0, 1, -1, 7])
        x = np.random.default_rng(seed).choice(values, size=size).astype(dtype)
        expected = F._pool2d(x, kernel, stride or kernel, reducer=np.max)
        got = F.max_pool2d(x, kernel, stride)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        assert np.allclose(out, x.mean(axis=(2, 3)))


class TestBatchNorm:
    def test_identity_parameters(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.batch_norm2d(x, np.zeros(3), np.ones(3), np.ones(3), np.zeros(3))
        assert np.allclose(out, x, atol=1e-4)

    def test_normalises_statistics(self, rng):
        x = rng.normal(loc=5.0, scale=2.0, size=(8, 1, 16, 16))
        mean = np.array([5.0])
        var = np.array([4.0])
        out = F.batch_norm2d(x, mean, var, np.ones(1), np.zeros(1))
        assert abs(out.mean()) < 0.1
        assert abs(out.std() - 1.0) < 0.1


class TestLossAndMetrics:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = F.softmax(rng.normal(size=(5, 10)), axis=1)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        assert F.cross_entropy(logits, labels) < 1e-4

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert F.accuracy(logits, labels) == pytest.approx(2 / 3)
