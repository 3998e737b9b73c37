"""The wave kernel's word operations on narrow words.

NumPy shifts ``uint8`` words element by element and reduces a short row
axis element by element, so the lockstep kernel scales by powers of two
instead of shifting left and reduces 8- and 16-byte rows on ``uint64``
lanes.  These tests hold both forms to the plain NumPy operations they
replace, on every word dtype and on both sides of the lane threshold, and
hold whole waves that take the lane path to the ``reference`` backend.
"""

import numpy as np
import pytest

from repro.ap.backends import batched
from repro.arch.accelerator import Accelerator
from repro.arch.config import APConfig, ArchitectureConfig
from repro.core.compiler import CompilerConfig, compile_model
from repro.inference import BatchedInference
from repro.nn.layers import Flatten, ReLU, TernaryConv2d, TernaryLinear
from repro.nn.model import Sequential
from repro.nn.stats import model_layer_specs

WORDS = [np.uint8, np.uint16, np.uint32, np.uint64]


def special_words(dtype, rng):
    """Zero, one, all-ones, the sign bit alone, the sign bit's neighbours
    and random words."""
    bits = 8 * np.dtype(dtype).itemsize
    special = [0, 1, (1 << bits) - 1, 1 << (bits - 1), (1 << (bits - 1)) - 1]
    special += [(1 << (bits - 1)) + 1]
    random = rng.integers(0, np.iinfo(dtype).max, size=64, dtype=dtype, endpoint=True)
    return np.concatenate([np.array(special, dtype=dtype), random])


@pytest.mark.parametrize("dtype", WORDS)
def test_scale_equals_left_shift(dtype):
    """``words * _POW2[k]`` in the word dtype is ``words << k`` for every
    count below the word's bits, in place and broadcast per record."""
    words = special_words(dtype, np.random.default_rng(1))
    bits = 8 * np.dtype(dtype).itemsize
    for k in range(bits):
        scale = batched._POW2[k].astype(dtype)
        assert np.array_equal(words * scale, words << dtype(k))
    counts = np.arange(bits, dtype=np.uint8).reshape(-1, 1, 1)
    stacked = np.broadcast_to(words, (bits, 1, len(words))).copy()
    shifted = stacked << counts.astype(dtype)
    stacked *= batched._POW2[counts].astype(dtype)
    assert np.array_equal(stacked, shifted)


def row_words(dtype, row_bytes, vectors, rng, moved):
    """``vectors`` row vectors of ``row_bytes`` bytes each, shaped ``(5,
    groups, 4, rows)``; with ``moved`` the pass axis is not outermost in
    memory (as in the kernel's minterms), only the rows are contiguous."""
    rows = row_bytes // np.dtype(dtype).itemsize
    groups = -(-vectors // 20)
    shape = (groups, 5, 4, rows) if moved else (5, groups, 4, rows)
    words = rng.integers(0, np.iinfo(dtype).max, size=shape, dtype=dtype, endpoint=True)
    # Sparse rows too, so AND and OR both see mixed bits.
    words[..., ::3] &= rng.integers(0, 2, size=words[..., ::3].shape, dtype=dtype)
    words[..., 1, :] = 0
    words[..., 2, :] = np.iinfo(dtype).max
    return np.moveaxis(words, 0, 1) if moved else words


@pytest.mark.parametrize("dtype", WORDS)
@pytest.mark.parametrize("row_bytes", [8, 16, 32])
@pytest.mark.parametrize("vectors", [20, batched._LANE_MIN_VECTORS * 2])
@pytest.mark.parametrize("moved", [False, True], ids=["contiguous", "moved"])
def test_row_reductions_equal_plain_reductions(dtype, row_bytes, vectors, moved):
    """The OR, AND and popcount of every row vector equal NumPy's plain
    reductions over the rows, on lanes (8 and 16 bytes, enough vectors) and
    off them (too few vectors, 32-byte rows)."""
    words = row_words(dtype, row_bytes, vectors, np.random.default_rng(row_bytes), moved)
    packed = (
        row_bytes in (8, 16) and words.size // words.shape[-1] >= batched._LANE_MIN_VECTORS
    )
    assert (batched._lanes(words) is not None) == packed
    for op in (np.bitwise_or, np.bitwise_and):
        got = batched._reduce_rows(op, words)
        assert got.dtype == words.dtype
        assert np.array_equal(got, op.reduce(words, axis=-1))
    counts = np.add.reduce(np.bitwise_count(words), axis=-1, dtype=np.int64)
    assert np.array_equal(batched._count_rows(words, np.dtype(np.int64)), counts)


def lane_model(in_channels, sparsity):
    return Sequential(
        [
            TernaryConv2d(
                in_channels, 6, kernel_size=3, padding=1, sparsity=sparsity, rng=1
            ),
            ReLU(),
            Flatten(),
            TernaryLinear(6 * 8 * 8, 4, sparsity=0.5, rng=2),
        ],
        name="lanes",
    )


def run(model, input_shape, images, rows, backend):
    architecture = ArchitectureConfig(ap=APConfig(rows=rows, columns=64), num_banks=4)
    compiled = compile_model(
        model_layer_specs(model, input_shape),
        CompilerConfig(activation_bits=4, architecture=architecture),
        name="lanes",
        emit_programs=True,
    )
    driver = BatchedInference(
        model,
        input_shape,
        bits=4,
        accelerator=Accelerator(config=architecture, backend=backend),
        backend=backend,
        compiled=compiled,
    )
    try:
        return driver.run(images)
    finally:
        driver.close()


@pytest.mark.parametrize(
    "rows, sparsity, word",
    [(8, 0.85, np.uint8), (16, 0.7, np.uint8), (4, 0.3, np.uint16), (8, 0.3, np.uint16)],
    ids=["8-row-uint8", "16-row-uint8", "4-row-uint16", "8-row-uint16"],
)
def test_lane_waves_match_reference(monkeypatch, rows, sparsity, word):
    """Waves on 8- and 16-byte rows reduce on lanes and still equal the
    ``reference`` backend on logits, ``CAMStats`` and checksums."""
    lanes = []
    plain = batched._lanes

    def spy(words):
        packed = plain(words)
        lanes.append((words.dtype, words.shape[-1], packed is not None))
        return packed

    monkeypatch.setattr(batched, "_lanes", spy)
    input_shape = (4, 8, 8)
    model = lane_model(input_shape[0], sparsity)
    images = np.random.default_rng(5).uniform(0.0, 1.0, size=(6,) + input_shape)
    result = run(model, input_shape, images, rows, "batched")
    assert (np.dtype(word), rows, True) in lanes
    monkeypatch.undo()
    expected = run(model, input_shape, images, rows, "reference")
    assert result.logits.tobytes() == expected.logits.tobytes()
    assert result.checksum == expected.checksum
    assert result.execution.total_stats == expected.execution.total_stats
    assert [(layer.stats, layer.checksum) for layer in result.execution.layers] == [
        (layer.stats, layer.checksum) for layer in expected.execution.layers
    ]
