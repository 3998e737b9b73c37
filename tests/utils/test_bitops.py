"""Tests for two's-complement and bit-vector helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import QuantizationError
from repro.utils import bitops


class TestWidths:
    def test_bits_for_unsigned_zero(self):
        assert bitops.bits_for_unsigned_max(0) == 1

    def test_bits_for_unsigned_powers(self):
        assert bitops.bits_for_unsigned_max(1) == 1
        assert bitops.bits_for_unsigned_max(2) == 2
        assert bitops.bits_for_unsigned_max(255) == 8
        assert bitops.bits_for_unsigned_max(256) == 9

    def test_bits_for_unsigned_rejects_negative(self):
        with pytest.raises(ValueError):
            bitops.bits_for_unsigned_max(-1)

    def test_bits_for_signed_range_symmetric(self):
        assert bitops.bits_for_signed_range(-8, 7) == 4
        assert bitops.bits_for_signed_range(-9, 0) == 5

    def test_bits_for_signed_range_positive_only(self):
        assert bitops.bits_for_signed_range(0, 7) == 4
        assert bitops.bits_for_signed_range(0, 8) == 5

    def test_bits_for_signed_range_rejects_empty(self):
        with pytest.raises(ValueError):
            bitops.bits_for_signed_range(3, 2)

    def test_min_max_signed(self):
        assert bitops.min_signed_value(8) == -128
        assert bitops.max_signed_value(8) == 127
        assert bitops.max_unsigned_value(8) == 255

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            bitops.min_signed_value(0)


def loop_bits_for_signed_range(lo, hi):
    """The defining search: the first width whose range holds ``[lo, hi]``."""
    width = 1
    while not (
        bitops.min_signed_value(width) <= lo and hi <= bitops.max_signed_value(width)
    ):
        width += 1
    return width


class TestSignedRangeClosedForm:
    """``bits_for_signed_range`` is a closed form of the width-by-width search."""

    def test_exhaustive_small_ranges(self):
        for lo in range(-130, 131):
            for hi in range(lo, 131):
                expected = loop_bits_for_signed_range(lo, hi)
                assert bitops.bits_for_signed_range(lo, hi) == expected, (lo, hi)

    @given(st.integers(-(2**200), 2**200), st.integers(0, 2**200))
    def test_large_ranges(self, lo, span):
        hi = lo + span
        expected = loop_bits_for_signed_range(lo, hi)
        assert bitops.bits_for_signed_range(lo, hi) == expected

    @given(st.integers(1, 300))
    def test_width_boundaries(self, width):
        lo, hi = bitops.min_signed_value(width), bitops.max_signed_value(width)
        assert bitops.bits_for_signed_range(lo, hi) == width
        assert bitops.bits_for_signed_range(lo - 1, hi) == width + 1
        assert bitops.bits_for_signed_range(lo, hi + 1) == width + 1

    @given(st.integers(-(2**70), 2**70), st.integers(1, 2**70))
    def test_empty_range_raises(self, hi, gap):
        with pytest.raises(ValueError):
            bitops.bits_for_signed_range(hi + gap, hi)

    def test_numpy_integers(self):
        assert bitops.bits_for_signed_range(np.int64(-9), np.int32(0)) == 5


class TestTwosComplement:
    def test_roundtrip_small_values(self):
        for width in (1, 2, 4, 8, 12):
            lo, hi = bitops.min_signed_value(width), bitops.max_signed_value(width)
            for value in range(lo, hi + 1):
                code = bitops.to_twos_complement(value, width)
                assert 0 <= code < (1 << width)
                assert bitops.from_twos_complement(code, width) == value

    def test_out_of_range_rejected(self):
        with pytest.raises(QuantizationError):
            bitops.to_twos_complement(128, 8)
        with pytest.raises(QuantizationError):
            bitops.to_twos_complement(-129, 8)

    def test_invalid_code_rejected(self):
        with pytest.raises(QuantizationError):
            bitops.from_twos_complement(256, 8)

    def test_sign_extend_preserves_value(self):
        code = bitops.to_twos_complement(-5, 4)
        extended = bitops.sign_extend(code, 4, 8)
        assert bitops.from_twos_complement(extended, 8) == -5

    def test_sign_extend_rejects_narrowing(self):
        with pytest.raises(ValueError):
            bitops.sign_extend(0b1111, 4, 3)

    @given(st.integers(min_value=-(2**15), max_value=2**15 - 1))
    def test_roundtrip_property(self, value):
        width = bitops.bits_for_signed_range(value, value)
        code = bitops.to_twos_complement(value, width)
        assert bitops.from_twos_complement(code, width) == value


class TestBitVectors:
    def test_int_to_bits_lsb_first(self):
        bits = bitops.int_to_bits(6, 4)
        assert list(bits) == [0, 1, 1, 0]

    def test_negative_value_bits(self):
        bits = bitops.int_to_bits(-1, 4)
        assert list(bits) == [1, 1, 1, 1]

    def test_bits_to_int_signed(self):
        assert bitops.bits_to_int([1, 1, 1, 1], signed=True) == -1
        assert bitops.bits_to_int([1, 1, 1, 1], signed=False) == 15

    def test_bits_to_int_rejects_empty(self):
        with pytest.raises(ValueError):
            bitops.bits_to_int([])

    def test_bits_to_int_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bitops.bits_to_int([0, 2, 1])

    @given(st.integers(min_value=-2048, max_value=2047), st.integers(min_value=12, max_value=20))
    def test_bit_vector_roundtrip(self, value, width):
        bits = bitops.int_to_bits(value, width)
        assert bitops.bits_to_int(bits, signed=True) == value

    def test_vector_to_bit_matrix_roundtrip(self, ):
        values = [-8, -1, 0, 3, 7]
        matrix = bitops.vector_to_bit_matrix(values, 5)
        assert matrix.shape == (5, 5)
        restored = bitops.bit_matrix_to_vector(matrix, signed=True)
        assert list(restored) == values

    def test_bit_matrix_to_vector_rejects_1d(self):
        with pytest.raises(ValueError):
            bitops.bit_matrix_to_vector(np.zeros(4))

    def test_vector_to_bit_matrix_rejects_out_of_range(self):
        with pytest.raises(QuantizationError):
            bitops.vector_to_bit_matrix([16], 5)
        with pytest.raises(QuantizationError):
            bitops.vector_to_bit_matrix([-17], 5)

    def test_vector_to_bit_matrix_rejects_huge_unsigned(self):
        """uint64 values beyond int64 must raise, not wrap into range."""
        with pytest.raises(QuantizationError):
            bitops.vector_to_bit_matrix(np.array([2**64 - 1], dtype=np.uint64), 8)
        with pytest.raises(QuantizationError):
            bitops.vector_to_bit_matrix([2**64 - 1], 8)

    def test_vector_to_bit_matrix_non_integer_values(self):
        matrix = bitops.vector_to_bit_matrix([3.0, -2.0], 4)
        assert list(bitops.bit_matrix_to_vector(matrix)) == [3, -2]

    def test_wide_words_roundtrip(self):
        values = [-(2**63), 2**63 - 1, 0, -1]
        matrix = bitops.vector_to_bit_matrix(values, 64)
        assert list(bitops.bit_matrix_to_vector(matrix, signed=True)) == values

    def test_pack_bits_int64_matches_decoder(self):
        matrix = bitops.vector_to_bit_matrix([-8, -1, 0, 3, 7], 5)
        assert list(bitops.pack_bits_int64(matrix)) == [-8, -1, 0, 3, 7]
        assert list(bitops.pack_bits_int64(matrix, signed=False)) == [
            24, 31, 0, 3, 7,
        ]
