"""Activation quantization, lowering and buffering for the functional dataflow.

The inference subsystem keeps every inter-layer tensor in two coupled
representations: the *float* activation the host-side layers (batch norm,
ReLU, pooling, residual adds) operate on, and the *integer codes* the AP
actually computes with.  This module owns the conversion between the two and
the per-layer buffers:

* :func:`quantize_batch` applies the LSQ-style per-tensor quantizer of
  :mod:`repro.nn.quantization` **per image**, so every image's activation
  stream is independent of the rest of the batch (batched and one-by-one
  execution produce byte-identical results).
* :func:`dequantize_batch` is the single shared scaling path - the AP
  dataflow and the pure-NumPy reference both call it on *identical* integer
  tensors, which is what makes their logits byte-identical rather than merely
  close.
* :func:`lower_input_rows` turns one image's quantized input into the AP row
  operands of a convolution: the per-channel im2col layout of
  :mod:`repro.nn.im2col` (``(Cin, Fh*Fw, Hout*Wout)``), whose last axis is
  the CAM row dimension sliced per row tile.
* :func:`lower_batch_rows` lowers the whole batch at once; the inference
  engine stages every wave operand as a view of its result.
* :func:`lower_batch_planes` is the same lowering in the bit-plane form (one
  uint8 cell per CAM bit, via :func:`repro.ap.backends.packing.unpack_bits`),
  with :class:`HostArena` to reuse its staging buffers.  The batched
  backend's packed-word wave loads integer codes directly, so the engine no
  longer calls it.
* :class:`ActivationStore` owns the per-layer activation buffers of one
  inference request and meters the activation bits that enter each layer
  (the interconnect hand-off traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.ap.backends.packing import unpack_bits
from repro.errors import ModelDefinitionError
from repro.nn.im2col import conv_output_size, im2col
from repro.nn.quantization import QuantizationConfig


def normalize_images(
    images: np.ndarray, input_shape: Optional[Tuple[int, ...]] = None
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Coerce images to a float64 batched tensor ``(N,) + input_shape``.

    The single normalization path of the inference subsystem - the AP
    dataflow and the NumPy reference both route through it, so the same
    ``images`` argument can never be interpreted differently by the two.
    4-D ``(N, C, H, W)`` and 2-D ``(N, features)`` arrays are treated as
    batched; 3-D/1-D arrays as one un-batched sample.

    Returns:
        ``(x, input_shape)`` with ``x`` of shape ``(N,) + input_shape``.

    Raises:
        ModelDefinitionError: for a shape mismatch, an empty batch, or
            NaN/infinite pixel values (which have no quantized code).
    """
    x = np.asarray(images, dtype=np.float64)
    if input_shape is None:
        input_shape = tuple(x.shape[1:]) if x.ndim in (2, 4) else tuple(x.shape)
    else:
        input_shape = tuple(input_shape)
    if x.ndim == len(input_shape):
        x = x[None]
    if x.shape[1:] != input_shape:
        raise ModelDefinitionError(
            f"images of shape {x.shape} do not match input shape {input_shape}"
        )
    if x.shape[0] == 0:
        raise ModelDefinitionError("an inference request needs at least one image")
    if not np.isfinite(x).all():
        raise ModelDefinitionError("images contain NaN or infinite values")
    return x, input_shape


def quantize_batch(
    x: np.ndarray, bits: int, signed: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize a batched activation tensor with per-image LSQ calibration.

    Calibration and rounding are evaluated as one strided pass over the
    whole batch (no per-image Python loop, no GIL on the hot path), yet
    remain *per image*: each image's step comes from its own
    ``2 * mean(|x_i|) / sqrt(qmax)`` reduction, bit-identical to running
    :class:`~repro.nn.quantization.ActivationQuantizer` image by image - so
    batched and one-by-one execution still produce byte-identical codes.

    Args:
        x: float activations, shape ``(N, ...)``.
        bits: activation precision.
        signed: whether the quantized range is symmetric around zero.

    Returns:
        ``(codes, steps)``: integer codes of ``x``'s shape (clamped to the
        representable range) and the per-image step sizes, shape ``(N,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ModelDefinitionError(
            f"quantize_batch expects a batched tensor (N, ...), got shape {x.shape}"
        )
    config = QuantizationConfig(bits=bits, signed=signed)
    qmax = max(1, config.qmax)
    magnitudes = np.abs(x).reshape(x.shape[0], -1).mean(axis=1)
    steps = np.maximum(2.0 * magnitudes / np.sqrt(qmax), 1e-8)
    broadcast = steps.reshape((-1,) + (1,) * (x.ndim - 1))
    codes = np.clip(np.round(x / broadcast), config.qmin, config.qmax).astype(np.int64)
    return codes, steps


def dequantize_batch(
    codes: np.ndarray, steps: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Map integer results back to floats with per-image steps.

    This is the *only* dequantization path of the inference subsystem: the AP
    dataflow and the NumPy reference both call it, so identical integer
    inputs produce bit-identical float outputs.
    """
    codes = np.asarray(codes)
    shape = (-1,) + (1,) * (codes.ndim - 1)
    return codes.astype(np.float64) * np.asarray(steps).reshape(shape) * float(scale)


def lower_input_rows(
    codes: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Lower one image's quantized input to AP row operands.

    Args:
        codes: integer codes of one image - ``(Cin, H, W)`` for a
            convolution, ``(features,)`` for a fully-connected layer (treated
            as a 1x1 convolution over a 1x1 spatial extent, exactly like the
            compiler frontend does).

    Returns:
        Array of shape ``(Cin, Fh*Fw, Hout*Wout)``: for every input channel,
        the patch element ``x{k}`` of every output position - the last axis
        is the CAM row dimension (sliced per row tile by the engine).
    """
    codes = np.asarray(codes)
    if codes.ndim == 1:
        return codes[:, None, None]
    if codes.ndim != 3:
        raise ModelDefinitionError(
            f"expected (Cin, H, W) or (features,) codes, got shape {codes.shape}"
        )
    with telemetry.span("host.lower", category="host", images=1):
        return im2col(codes[None], kernel_size, stride, padding)[0]


def lower_batch_rows(
    codes: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Batched :func:`lower_input_rows`: lower a whole image batch at once.

    One strided im2col over ``(N, Cin, H, W)`` (or a plain reshape of
    ``(N, features)``) replaces N per-image lowering calls - the host-side
    half of the mega-kernel batching.  ``result[i]`` is byte-identical to
    ``lower_input_rows(codes[i], ...)``.

    Returns:
        Array of shape ``(N, Cin, Fh*Fw, Hout*Wout)``.
    """
    codes = np.asarray(codes)
    if codes.ndim == 2:
        return codes[:, :, None, None]
    if codes.ndim != 4:
        raise ModelDefinitionError(
            f"expected (N, Cin, H, W) or (N, features) codes, got shape {codes.shape}"
        )
    with telemetry.span("host.lower", category="host", images=int(codes.shape[0])):
        return im2col(codes, kernel_size, stride, padding)


class HostArena:
    """Grow-only staging buffers reused across layers of one run.

    The wave-native host path needs two large scratch tensors per layer (the
    unpacked bit planes and their im2col lowering); their shapes change layer
    to layer but their byte sizes are bounded by the largest layer, so one
    flat byte buffer per role serves the whole network.  ``take`` returns a
    correctly-shaped view of the (possibly grown) buffer - contents are
    uninitialized, callers overwrite every element.  Not thread-safe: one
    arena belongs to one running request at a time (the engine keeps a
    checkout pool).
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        buffer = self._buffers.get(key)
        if buffer is None or buffer.nbytes < size:
            buffer = self._buffers[key] = np.empty(max(size, 1), dtype=np.uint8)
        return buffer[:size].view(dtype).reshape(shape)


def _staging_buffer(
    arena: Optional[HostArena], key: str, shape: Tuple[int, ...], dtype
) -> np.ndarray:
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.take(key, shape, dtype)


def lower_batch_planes(
    codes: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
    width: int = 4,
    arena: Optional[HostArena] = None,
) -> np.ndarray:
    """Lower a whole batch straight to CAM bit planes (wave-native form).

    The packed composition of :func:`lower_batch_rows` and the CAM load's
    bit unpack: the batch's codes are unpacked once to ``width`` two's
    complement bit planes and im2col runs on the uint8 planes, so
    ``result[n, c, :, k, p]`` holds exactly the bits a CAM load of
    ``lower_batch_rows(codes)[n, c, k, p]`` would write (zero padding
    unpacks to zero planes, and im2col only copies values, so unpack and
    lowering commute bit for bit).

    Returns:
        uint8 array of shape ``(N, Cin, width, Fh*Fw, Hout*Wout)``.
    """
    codes = np.asarray(codes)
    if codes.ndim == 2:
        num_images, features = codes.shape
        planes = _staging_buffer(
            arena, "host.unpack", (num_images, features, width), np.uint8
        )
        unpack_bits(codes, width, out=planes)
        return planes.reshape(num_images, features, width, 1, 1)
    if codes.ndim != 4:
        raise ModelDefinitionError(
            f"expected (N, Cin, H, W) or (N, features) codes, got shape {codes.shape}"
        )
    num_images, channels, height, spatial_w = codes.shape
    kernel_h, kernel_w = kernel_size
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(spatial_w, kernel_w, stride, padding)
    with telemetry.span(
        "host.lower", category="host", images=int(num_images), form="planes"
    ):
        planes = _staging_buffer(
            arena,
            "host.unpack",
            (num_images, channels, width, height, spatial_w),
            np.uint8,
        )
        # Unpack into the bit-major layout im2col consumes as extra channels.
        unpack_bits(codes, width, out=planes.transpose(0, 1, 3, 4, 2))
        lowered = im2col(
            planes.reshape(num_images, channels * width, height, spatial_w),
            kernel_size,
            stride,
            padding,
            out=_staging_buffer(
                arena,
                "host.lowered",
                (num_images, channels * width, kernel_h * kernel_w, out_h * out_w),
                np.uint8,
            ),
        )
    return lowered.reshape(
        num_images, channels, width, kernel_h * kernel_w, out_h * out_w
    )


@dataclass
class LayerActivations:
    """Per-layer activation buffer of one inference request."""

    name: str
    #: Per-image LSQ step sizes of the layer's quantized input.
    steps: np.ndarray
    #: Activation bits entering the layer (interconnect hand-off traffic).
    input_bits: int
    #: Quantized input codes / integer outputs (kept only when the store is
    #: constructed with ``keep_tensors=True``; large models drop them).
    input_codes: Optional[np.ndarray] = None
    output_int: Optional[np.ndarray] = None


class ActivationStore:
    """Owns the per-layer activation buffers of one inference run.

    Args:
        activation_bits: precision of the quantized activations.
        signed: signedness of the quantized range.
        keep_tensors: keep the quantized input codes and integer outputs per
            layer (useful for debugging and tests; costs memory on large
            models).
    """

    def __init__(
        self,
        activation_bits: int = 4,
        signed: bool = False,
        keep_tensors: bool = False,
    ) -> None:
        self.activation_bits = activation_bits
        self.signed = signed
        self.keep_tensors = keep_tensors
        self._layers: Dict[str, LayerActivations] = {}
        self._order: List[str] = []

    def quantize_input(self, name: str, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Quantize a layer's float input and record its buffer entry.

        A layer visited again (the next micro-batch of a chunked run) extends
        its entry: traffic bits accumulate and the per-image steps concatenate.
        """
        with telemetry.span("host.quantize", category="host", layer=name):
            codes, steps = quantize_batch(x, self.activation_bits, self.signed)
        bits = int(codes.size) * self.activation_bits
        existing = self._layers.get(name)
        if existing is None:
            self._order.append(name)
            self._layers[name] = LayerActivations(
                name=name,
                steps=steps,
                input_bits=bits,
                input_codes=codes if self.keep_tensors else None,
            )
        else:
            existing.steps = np.concatenate([existing.steps, steps])
            existing.input_bits += bits
            if self.keep_tensors and existing.input_codes is not None:
                existing.input_codes = np.concatenate([existing.input_codes, codes])
        return codes, steps

    def record_output(self, name: str, output_int: np.ndarray) -> None:
        """Attach a layer's integer output to its buffer entry."""
        if not (self.keep_tensors and name in self._layers):
            return
        entry = self._layers[name]
        if entry.output_int is None:
            entry.output_int = output_int
        else:
            entry.output_int = np.concatenate([entry.output_int, output_int])

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __getitem__(self, name: str) -> LayerActivations:
        return self._layers[name]

    def layers(self) -> List[LayerActivations]:
        """Buffer entries in execution order."""
        return [self._layers[name] for name in self._order]

    @property
    def total_activation_bits(self) -> int:
        """Activation bits handed between layers across the whole run."""
        return sum(entry.input_bits for entry in self._layers.values())

    def clear(self) -> None:
        """Drop every buffer entry (reused across micro-batches)."""
        self._layers.clear()
        self._order.clear()
