"""Tests for the two-level (hierarchical) bitmap encoding (Figure 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeError
from repro.formats.hierarchical import TwoLevelBitmapMatrix


def _block_sparse(seed, shape=(64, 48), tile=(16, 16), keep=0.5):
    """A matrix where whole tiles are either populated or empty."""
    rng = np.random.default_rng(seed)
    dense = np.zeros(shape)
    for r0 in range(0, shape[0], tile[0]):
        for c0 in range(0, shape[1], tile[1]):
            if rng.random() < keep:
                block_shape = dense[r0 : r0 + tile[0], c0 : c0 + tile[1]].shape
                dense[r0 : r0 + tile[0], c0 : c0 + tile[1]] = rng.uniform(
                    0.5, 1.5, block_shape
                )
    return dense


class TestConstruction:
    def test_round_trip(self):
        dense = _block_sparse(0)
        encoded = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=(16, 16))
        assert np.allclose(encoded.to_dense(), dense)

    def test_round_trip_non_multiple_dims(self):
        dense = _block_sparse(1, shape=(50, 37), tile=(16, 16))
        encoded = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=(32, 16))
        assert np.allclose(encoded.to_dense(), dense)

    def test_grid_shape(self):
        encoded = TwoLevelBitmapMatrix.from_dense(np.zeros((64, 48)), (32, 16))
        assert encoded.grid_shape == (2, 3)

    def test_invalid_order_rejected(self):
        with pytest.raises(FormatError):
            TwoLevelBitmapMatrix.from_dense(np.zeros((8, 8)), (4, 4), order="bogus")

    def test_warp_bitmap_must_match_tile_grid(self):
        encoded = TwoLevelBitmapMatrix.from_dense(np.eye(64), (32, 16))
        with pytest.raises(FormatError):
            TwoLevelBitmapMatrix(
                shape=encoded.shape,
                tile_shape=encoded.tile_shape,
                warp_bitmap=encoded.warp_bitmap.T,
                tiles=encoded.tiles,
            )

    def test_one_tile_per_grid_cell_required(self):
        encoded = TwoLevelBitmapMatrix.from_dense(np.eye(64), (32, 16))
        with pytest.raises(FormatError):
            TwoLevelBitmapMatrix(
                shape=encoded.shape,
                tile_shape=encoded.tile_shape,
                warp_bitmap=encoded.warp_bitmap,
                tiles=encoded.tiles[:-1],
            )


class TestWarpBitmap:
    def test_warp_bitmap_marks_empty_tiles(self):
        dense = np.zeros((64, 32))
        dense[0:32, 0:16] = 1.0
        encoded = TwoLevelBitmapMatrix.from_dense(dense, (32, 16))
        assert encoded.warp_bitmap[0, 0]
        assert not encoded.warp_bitmap[1, 1]
        assert encoded.tile_is_empty(1, 1)
        assert not encoded.tile_is_empty(0, 0)

    def test_occupied_fraction(self):
        dense = np.zeros((64, 32))
        dense[0:32, 0:16] = 1.0
        encoded = TwoLevelBitmapMatrix.from_dense(dense, (32, 16))
        assert encoded.occupied_tile_fraction == pytest.approx(0.25)

    def test_tile_access_out_of_range(self):
        encoded = TwoLevelBitmapMatrix.from_dense(np.zeros((32, 32)), (32, 16))
        with pytest.raises(ShapeError):
            encoded.tile(5, 0)

    def test_tile_contents_match_dense_block(self):
        dense = _block_sparse(2)
        encoded = TwoLevelBitmapMatrix.from_dense(dense, (16, 16))
        tile = encoded.tile(1, 1)
        if not tile.is_empty:
            expected = dense[16:32, 16:32]
            assert np.allclose(tile.encoding.to_dense(), expected)


class TestStatistics:
    def test_nnz_matches_dense(self):
        dense = _block_sparse(3)
        encoded = TwoLevelBitmapMatrix.from_dense(dense, (16, 16))
        assert encoded.nnz == np.count_nonzero(dense)

    def test_footprint_drops_for_empty_tiles(self):
        dense_full = np.ones((64, 64))
        dense_half = np.ones((64, 64))
        dense_half[:, 32:] = 0.0
        full = TwoLevelBitmapMatrix.from_dense(dense_full, (32, 32))
        half = TwoLevelBitmapMatrix.from_dense(dense_half, (32, 32))
        assert half.footprint_bytes() < full.footprint_bytes()

    def test_density(self):
        dense = np.zeros((32, 32))
        dense[0, 0] = 1.0
        encoded = TwoLevelBitmapMatrix.from_dense(dense, (32, 16))
        assert encoded.density == pytest.approx(1 / 1024)

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        dense = np.where(rng.random((40, 24)) < 0.2, rng.uniform(1, 2, (40, 24)), 0.0)
        encoded = TwoLevelBitmapMatrix.from_dense(dense, (16, 8))
        assert np.allclose(encoded.to_dense(), dense)
        assert encoded.nnz == np.count_nonzero(dense)
