"""Tests for repro.utils.bitops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.utils.bitops import (
    bitmap_outer,
    pack_bits,
    pack_bits_rows,
    popcount,
    popcount_words,
    prefix_popcount,
    prefix_popcount_words,
)


def _word_bits(words, length):
    """Bit ``i`` of a packed bitmap is bit ``i % 32`` of word ``i // 32``."""
    return np.array(
        [(int(words[i // 32]) >> (i % 32)) & 1 for i in range(length)], dtype=bool
    )


class TestPackUnpack:
    def test_round_trip_small(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=bool)
        words = pack_bits(bits)
        assert words.dtype == np.uint32
        assert np.array_equal(_word_bits(words, bits.size), bits)

    def test_round_trip_longer_than_word(self):
        rng = np.random.default_rng(0)
        bits = rng.random(100) < 0.5
        assert np.array_equal(_word_bits(pack_bits(bits), 100), bits)

    def test_word_count(self):
        assert pack_bits(np.zeros(1, dtype=bool)).size == 1
        assert pack_bits(np.zeros(32, dtype=bool)).size == 1
        assert pack_bits(np.zeros(33, dtype=bool)).size == 2

    def test_bit_position_within_word(self):
        bits = np.zeros(32, dtype=bool)
        bits[5] = True
        assert pack_bits(bits)[0] == np.uint32(1 << 5)

    def test_rejects_2d_input(self):
        with pytest.raises(ShapeError):
            pack_bits(np.zeros((2, 2), dtype=bool))

    @given(st.lists(st.booleans(), min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, bits):
        array = np.array(bits, dtype=bool)
        if array.size == 0:
            assert pack_bits(array).size == 0
            return
        assert np.array_equal(_word_bits(pack_bits(array), array.size), array)


class TestPopcount:
    def test_popcount_counts_true(self):
        assert popcount(np.array([True, False, True, True])) == 3

    def test_popcount_empty(self):
        assert popcount(np.array([], dtype=bool)) == 0

    def test_popcount_words_matches_bit_count(self):
        rng = np.random.default_rng(1)
        bits = rng.random(96) < 0.3
        words = pack_bits(bits)
        assert popcount_words(words).sum() == popcount(bits)

    def test_prefix_popcount_is_exclusive(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=bool)
        assert np.array_equal(prefix_popcount(bits), [0, 1, 1, 2, 3])

    def test_prefix_popcount_rejects_2d(self):
        with pytest.raises(ShapeError):
            prefix_popcount(np.zeros((2, 3)))

    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_prefix_plus_bit_equals_inclusive(self, bits):
        array = np.array(bits, dtype=np.int64)
        prefix = prefix_popcount(array)
        inclusive = np.cumsum(array)
        assert np.array_equal(prefix + array, inclusive)


class TestRowWiseWordOps:
    def test_pack_bits_rows_matches_per_row_pack(self):
        rng = np.random.default_rng(2)
        bits = rng.random((5, 70)) < 0.4
        packed = pack_bits_rows(bits)
        assert packed.dtype == np.uint32
        assert packed.shape == (5, 3)
        for r in range(bits.shape[0]):
            assert np.array_equal(packed[r], pack_bits(bits[r]))

    def test_pack_bits_rows_rejects_1d(self):
        with pytest.raises(ShapeError):
            pack_bits_rows(np.zeros(8, dtype=bool))

    def test_popcount_words_preserves_shape(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**32, size=(4, 3), dtype=np.uint32)
        counts = popcount_words(words)
        assert counts.shape == words.shape
        assert counts.dtype == np.int64

    def test_prefix_popcount_words_is_exclusive_per_row(self):
        bits = np.zeros((2, 96), dtype=bool)
        bits[0, 0] = bits[0, 40] = bits[0, 70] = True
        bits[1, 33] = True
        prefix = prefix_popcount_words(pack_bits_rows(bits))
        assert np.array_equal(prefix, [[0, 1, 2], [0, 0, 1]])

    def test_prefix_popcount_words_rejects_1d(self):
        with pytest.raises(ShapeError):
            prefix_popcount_words(np.zeros(3, dtype=np.uint32))

    @given(st.integers(1, 6), st.integers(1, 130), st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_row_word_counts_match_scalar_popcount(self, rows, width, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((rows, width)) < 0.5
        counts = popcount_words(pack_bits_rows(bits))
        assert np.array_equal(counts.sum(axis=1), bits.sum(axis=1))


class TestBitmapOps:
    def test_bitmap_outer_matches_value_outer(self):
        col = np.array([1, 0, 1], dtype=bool)
        row = np.array([0, 1], dtype=bool)
        expected = np.outer(col, row)
        assert np.array_equal(bitmap_outer(col, row), expected)

    def test_bitmap_outer_requires_1d(self):
        with pytest.raises(ShapeError):
            bitmap_outer(np.zeros((2, 2), dtype=bool), np.zeros(2, dtype=bool))
