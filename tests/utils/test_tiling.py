"""Tests for repro.utils.tiling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.utils.tiling import ceil_div, num_tiles, tile_ranges


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(32, 8) == 4

    def test_rounds_up(self):
        assert ceil_div(33, 8) == 5

    def test_zero_numerator(self):
        assert ceil_div(0, 8) == 0

    def test_rejects_non_positive_denominator(self):
        with pytest.raises(ConfigError):
            ceil_div(4, 0)

    @given(st.integers(0, 10_000), st.integers(1, 512))
    @settings(max_examples=100, deadline=None)
    def test_matches_math_ceil(self, numerator, denominator):
        assert ceil_div(numerator, denominator) == -(-numerator // denominator)


class TestTileRanges:
    def test_covers_dimension_exactly(self):
        spans = list(tile_ranges(100, 32))
        assert spans[0] == (0, 32)
        assert spans[-1] == (96, 100)
        assert sum(stop - start for start, stop in spans) == 100

    def test_number_of_tiles(self):
        assert len(list(tile_ranges(100, 32))) == num_tiles(100, 32) == 4

    def test_tile_larger_than_dim(self):
        assert list(tile_ranges(5, 32)) == [(0, 5)]

    def test_rejects_non_positive_tile(self):
        with pytest.raises(ConfigError):
            list(tile_ranges(10, 0))

    @given(st.integers(1, 2000), st.integers(1, 128))
    @settings(max_examples=100, deadline=None)
    def test_ranges_are_contiguous_and_disjoint(self, dim, tile):
        spans = list(tile_ranges(dim, tile))
        assert spans[0][0] == 0
        assert spans[-1][1] == dim
        for (_, prev_stop), (start, _) in zip(spans, spans[1:]):
            assert prev_stop == start
