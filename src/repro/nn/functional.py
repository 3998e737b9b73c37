"""Reference NumPy implementations of the neural-network operators.

These operators define the *software accuracy* the RTM-AP must retain: the
compiled AP programs are validated bit-exactly against the quantized integer
convolution implemented here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelDefinitionError
from repro.nn.im2col import conv_output_size, im2col_matrix


def conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D convolution (cross-correlation) over a batched ``(N, C, H, W)`` input.

    Args:
        x: input of shape ``(N, Cin, H, W)``.
        weights: filters of shape ``(Cout, Cin, Fh, Fw)``.
        bias: optional per-output-channel bias of shape ``(Cout,)``.
        stride: spatial stride.
        padding: symmetric zero padding.
    """
    if x.ndim != 4 or weights.ndim != 4:
        raise ModelDefinitionError(
            f"conv2d expects 4-D input and weights, got {x.shape} and {weights.shape}"
        )
    out_channels, in_channels, kernel_h, kernel_w = weights.shape
    if x.shape[1] != in_channels:
        raise ModelDefinitionError(
            f"input has {x.shape[1]} channels but weights expect {in_channels}"
        )
    batch = x.shape[0]
    out_h = conv_output_size(x.shape[2], kernel_h, stride, padding)
    out_w = conv_output_size(x.shape[3], kernel_w, stride, padding)

    columns = im2col_matrix(x, (kernel_h, kernel_w), stride, padding)
    kernel_matrix = weights.reshape(out_channels, -1)
    result_dtype = np.result_type(x.dtype, weights.dtype)
    output = np.einsum("of,nfp->nop", kernel_matrix, columns, dtype=result_dtype)
    if bias is not None:
        output = output + bias.reshape(1, -1, 1)
    return output.reshape(batch, out_channels, out_h, out_w)


def linear(
    x: np.ndarray, weights: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fully-connected layer: ``y = x @ weights.T + bias``.

    Args:
        x: input of shape ``(N, in_features)``.
        weights: weight matrix of shape ``(out_features, in_features)``.
        bias: optional bias of shape ``(out_features,)``.
    """
    if x.ndim != 2 or weights.ndim != 2:
        raise ModelDefinitionError(
            f"linear expects 2-D input and weights, got {x.shape} and {weights.shape}"
        )
    if x.shape[1] != weights.shape[1]:
        raise ModelDefinitionError(
            f"input features {x.shape[1]} do not match weight features {weights.shape[1]}"
        )
    output = x @ weights.T
    if bias is not None:
        output = output + bias
    return output


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0)


def max_pool2d(x: np.ndarray, kernel_size: int, stride: Optional[int] = None) -> np.ndarray:
    """Max pooling over non-overlapping (or strided) windows of a ``(N, C, H, W)`` input.

    Windows of at most 2x2 that tile the input exactly (``stride ==
    kernel_size <= 2`` dividing ``H`` and ``W``) fold their strided views
    with ``np.maximum``, in each window's row-major order: byte-identical to the
    window loop's ``np.max``, which keeps the later of two equal values
    (``-0.0`` against ``0.0``) the same way.  On wider float64 windows
    ``np.max`` reduces in an order of its own, so those keep the loop.
    """
    stride = stride or kernel_size
    if x.ndim == 4 and stride == kernel_size <= 2:
        out_h = conv_output_size(x.shape[2], kernel_size, stride, 0)
        out_w = conv_output_size(x.shape[3], kernel_size, stride, 0)
        if (out_h * stride, out_w * stride) == x.shape[2:]:
            output = x[:, :, ::stride, ::stride].copy()
            for i in range(kernel_size):
                for j in range(kernel_size):
                    if i or j:
                        np.maximum(output, x[:, :, i::stride, j::stride], out=output)
            return output
    return _pool2d(x, kernel_size, stride, reducer=np.max)


def avg_pool2d(x: np.ndarray, kernel_size: int, stride: Optional[int] = None) -> np.ndarray:
    """Average pooling over windows of a ``(N, C, H, W)`` input."""
    stride = stride or kernel_size
    return _pool2d(x, kernel_size, stride, reducer=np.mean)


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    """Global average pooling collapsing the spatial dimensions."""
    if x.ndim != 4:
        raise ModelDefinitionError(f"expected (N, C, H, W), got shape {x.shape}")
    return x.mean(axis=(2, 3))


def _pool2d(x: np.ndarray, kernel_size: int, stride: int, reducer) -> np.ndarray:
    if x.ndim != 4:
        raise ModelDefinitionError(f"expected (N, C, H, W), got shape {x.shape}")
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_size, stride, 0)
    out_w = conv_output_size(width, kernel_size, stride, 0)
    output = np.empty((batch, channels, out_h, out_w), dtype=x.dtype)
    for i in range(out_h):
        for j in range(out_w):
            window = x[
                :,
                :,
                i * stride : i * stride + kernel_size,
                j * stride : j * stride + kernel_size,
            ]
            output[:, :, i, j] = reducer(window, axis=(2, 3))
    return output


def batch_norm2d(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch normalisation over the channel dimension."""
    if x.ndim != 4:
        raise ModelDefinitionError(f"expected (N, C, H, W), got shape {x.shape}")
    shape = (1, -1, 1, 1)
    scale = gamma / np.sqrt(var + eps)
    return (x - mean.reshape(shape)) * scale.reshape(shape) + beta.reshape(shape)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy loss of logits ``(N, classes)`` against integer labels."""
    probabilities = softmax(logits, axis=1)
    batch = logits.shape[0]
    eps = 1e-12
    return float(-np.log(probabilities[np.arange(batch), labels] + eps).mean())


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    predictions = logits.argmax(axis=1)
    return float((predictions == labels).mean())
