"""Two's-complement and bit-width helpers.

The associative processor operates bit-serially on two's-complement integers
stored one bit per racetrack domain.  These helpers are the single place where
the library converts between Python integers, two's-complement codes and
LSB-first bit vectors, so that the functional simulator, the compiler's
bit-width inference and the performance model all agree on the encoding.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from repro.errors import QuantizationError


def bits_for_unsigned_max(max_value: int) -> int:
    """Number of bits needed to store unsigned values in ``[0, max_value]``.

    ``bits_for_unsigned_max(0) == 1`` by convention (a value still occupies a
    bit in the CAM).
    """
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    if max_value == 0:
        return 1
    return int(max_value).bit_length()


def bits_for_signed_range(lo: int, hi: int) -> int:
    """Minimal two's-complement width representing every value in ``[lo, hi]``.

    Always returns at least 1.  A purely non-negative range still gets a sign
    bit only when needed (e.g. ``[0, 7]`` fits in 4 bits unsigned but the AP
    stores partial sums as signed values, so ``[0, 7]`` -> 4 bits signed).
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    # ``w`` bits hold [-2**(w-1), 2**(w-1) - 1]: a non-negative ``hi`` needs
    # ``hi.bit_length()`` magnitude bits, a negative ``lo`` needs those of
    # ``-lo - 1``, and the sign bit comes on top.
    hi, lo = operator.index(hi), operator.index(lo)
    return 1 + max(max(hi, 0).bit_length(), (-lo - 1).bit_length() if lo < 0 else 0)


def min_signed_value(width: int) -> int:
    """Smallest value representable in ``width``-bit two's complement."""
    _check_width(width)
    return -(1 << (width - 1))


def max_signed_value(width: int) -> int:
    """Largest value representable in ``width``-bit two's complement."""
    _check_width(width)
    return (1 << (width - 1)) - 1


def max_unsigned_value(width: int) -> int:
    """Largest value representable in ``width`` unsigned bits."""
    _check_width(width)
    return (1 << width) - 1


def to_twos_complement(value: int, width: int) -> int:
    """Encode a signed integer as an unsigned ``width``-bit two's-complement code."""
    _check_width(width)
    lo, hi = min_signed_value(width), max_signed_value(width)
    if not (lo <= value <= hi):
        raise QuantizationError(
            f"value {value} does not fit in {width}-bit two's complement [{lo}, {hi}]"
        )
    return value & ((1 << width) - 1)


def from_twos_complement(code: int, width: int) -> int:
    """Decode an unsigned ``width``-bit two's-complement code to a signed integer."""
    _check_width(width)
    if not (0 <= code < (1 << width)):
        raise QuantizationError(f"code {code} is not a valid {width}-bit pattern")
    if code & (1 << (width - 1)):
        return code - (1 << width)
    return code


def sign_extend(code: int, from_width: int, to_width: int) -> int:
    """Sign-extend a two's-complement code from ``from_width`` to ``to_width`` bits."""
    if to_width < from_width:
        raise ValueError(
            f"cannot sign-extend from {from_width} bits down to {to_width} bits"
        )
    value = from_twos_complement(code, from_width)
    return to_twos_complement(value, to_width)


def int_to_bits(value: int, width: int) -> np.ndarray:
    """LSB-first bit vector (dtype uint8) of a signed integer in two's complement."""
    code = to_twos_complement(value, width)
    return np.array([(code >> i) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: Sequence[int] | np.ndarray, signed: bool = True) -> int:
    """Convert an LSB-first bit vector back to an integer.

    Args:
        bits: iterable of 0/1 values, least-significant bit first.
        signed: interpret the most-significant bit as a two's-complement sign.
    """
    bit_list = [int(b) for b in bits]
    if not bit_list:
        raise ValueError("empty bit vector")
    if any(b not in (0, 1) for b in bit_list):
        raise ValueError(f"bit vector must contain only 0/1, got {bit_list}")
    code = 0
    for i, bit in enumerate(bit_list):
        code |= bit << i
    if signed:
        return from_twos_complement(code, len(bit_list))
    return code


def vector_to_bit_matrix(values: Iterable[int], width: int) -> np.ndarray:
    """Encode a vector of signed integers into an LSB-first bit matrix.

    Returns an array of shape ``(len(values), width)`` with dtype uint8, where
    row ``i`` holds the bits of ``values[i]`` with column 0 being the LSB.
    This is the layout used to load operands column-by-column into the CAM.
    """
    _check_width(width)
    array = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if array.dtype.kind not in "iu" or width > 62:
        # Exotic inputs (objects, floats, >62-bit words) take the exact
        # per-element path; the int64 fast path below covers the simulator.
        array = [int(value) for value in np.ravel(array)]
        out = np.zeros((len(array), width), dtype=np.uint8)
        for index, value in enumerate(array):
            out[index, :] = int_to_bits(value, width)
        return out
    lo, hi = min_signed_value(width), max_signed_value(width)
    if array.dtype.kind == "u":
        # Check before the int64 cast: large unsigned values must raise, not
        # wrap around into the valid signed range.
        bad = array > hi
        if bad.any():
            value = int(array[bad][0])
            raise QuantizationError(
                f"value {value} does not fit in {width}-bit two's complement "
                f"[{lo}, {hi}]"
            )
    array = array.astype(np.int64)
    bad = (array < lo) | (array > hi)
    if bad.any():
        value = int(array[bad][0])
        raise QuantizationError(
            f"value {value} does not fit in {width}-bit two's complement [{lo}, {hi}]"
        )
    shifts = np.arange(width, dtype=np.int64)
    return ((array[:, None] >> shifts) & 1).astype(np.uint8)


#: Cached bit-weight vectors (``1 << k``) per width, shared by the packers.
_BIT_WEIGHTS: dict = {}


def _bit_weights(width: int) -> np.ndarray:
    weights = _BIT_WEIGHTS.get(width)
    if weights is None:
        weights = _BIT_WEIGHTS[width] = np.int64(1) << np.arange(
            width, dtype=np.int64
        )
    return weights


def pack_bits_int64(bits: np.ndarray, signed: bool = True) -> np.ndarray:
    """Fast-path decode of a *validated* LSB-first bit matrix (width <= 62).

    Performs no 0/1 validation - callers own that invariant (the CAM stores
    uint8 0/1 cells).  This is the single home of the vectorized
    two's-complement decode, shared by :func:`bit_matrix_to_vector` and the
    batched execution backend.
    """
    width = bits.shape[1]
    code = bits @ _bit_weights(width)
    if signed and width:
        # Decode: subtract the weight of the sign bit twice.
        return code - (bits[:, width - 1].astype(np.int64) << np.int64(width))
    return code


def bit_matrix_to_vector(bits: np.ndarray, signed: bool = True) -> np.ndarray:
    """Decode an LSB-first bit matrix ``(n, width)`` into an int64 vector."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected 2-D bit matrix, got shape {bits.shape}")
    n, width = bits.shape
    if width == 0 and n:
        raise ValueError("empty bit vector")
    if width > 62:
        out = np.zeros(n, dtype=np.int64)
        for i in range(n):
            out[i] = bits_to_int(bits[i, :], signed=signed)
        return out
    bits = bits.astype(np.int64)
    if np.any((bits != 0) & (bits != 1)):
        row = int(np.nonzero(np.any((bits != 0) & (bits != 1), axis=1))[0][0])
        raise ValueError(
            f"bit vector must contain only 0/1, got {[int(b) for b in bits[row]]}"
        )
    return pack_bits_int64(bits, signed=signed)


def _check_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"bit width must be >= 1, got {width}")
