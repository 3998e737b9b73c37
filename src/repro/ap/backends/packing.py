"""Shared bit pack/unpack helpers for the AP execution backends.

Conversions between two operand representations: signed integer *words*
(what programs load and read) and *bit planes* (the CAM's ``0/1`` cells,
least-significant bit first).  The batched backend takes its shift
vectors from here and the bit-plane host lowering
(:func:`repro.inference.activations.lower_batch_planes`) its unpack:

* :func:`bit_shifts` / :func:`pow2` - cached per-width shift and ``2**k``
  vectors (the packing bases).
* :func:`unpack_bits` - words to bit planes in one vectorized pass.  Two's
  complement via arithmetic right shift: negative words replicate their sign
  bit above their magnitude, exactly like writing the word into CAM cells
  bit by bit.
* :func:`pack_planes` - bit planes back to sign-extended words (one matrix
  product plus a sign correction).

The batched backend's wave engine needs none of them: it keeps every
nanowire as one packed unsigned word (see :mod:`repro.ap.backends.batched`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

#: Cached ``np.arange`` shift vectors per width (int64).
_SHIFT_CACHE: Dict[int, np.ndarray] = {}

#: Cached ``2**k`` packing vectors per width (int64).
_POW2_CACHE: Dict[int, np.ndarray] = {}


def bit_shifts(width: int) -> np.ndarray:
    """The cached ``[0, 1, ..., width-1]`` int64 shift vector."""
    shifts = _SHIFT_CACHE.get(width)
    if shifts is None:
        shifts = _SHIFT_CACHE[width] = np.arange(width, dtype=np.int64)
    return shifts


def pow2(width: int) -> np.ndarray:
    """The cached ``[1, 2, ..., 2**(width-1)]`` int64 packing vector."""
    values = _POW2_CACHE.get(width)
    if values is None:
        values = _POW2_CACHE[width] = np.int64(1) << bit_shifts(width)
    return values


def unpack_bits(
    values: np.ndarray, width: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Unpack integer words to ``width`` bit planes along a new last axis.

    ``result[..., k]`` is bit ``k`` of ``values`` (LSB first).  The
    arithmetic right shift sign-extends negative words, matching the CAM
    write semantics of :meth:`ColumnRegion <repro.ap.isa.ColumnRegion>`
    loads bit for bit.  ``out`` (shape ``values.shape + (width,)``, any
    integer dtype) receives the planes when given; otherwise fresh uint8
    planes are returned.
    """
    values = np.asarray(values)
    planes = (values[..., None] >> bit_shifts(width)) & np.int64(1)
    if out is not None:
        out[...] = planes
        return out
    return planes.astype(np.uint8)


def pack_planes(planes: np.ndarray, signed: bool = True) -> np.ndarray:
    """Pack bit planes (last axis, LSB first) into sign-extended int64 words.

    The inverse of :func:`unpack_bits`: one matrix product against the
    ``2**k`` basis, then (when ``signed``) the MSB plane's weight is folded
    negative - two's complement over ``width`` bits.
    """
    width = planes.shape[-1]
    as_int = planes.astype(np.int64)
    raw = as_int @ pow2(width)
    if not signed:
        return raw
    return raw - (as_int[..., width - 1] << np.int64(width))
