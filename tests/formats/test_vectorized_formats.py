"""Vectorized format helpers vs their original Python-loop oracles.

The CSR helpers (``to_dense`` / ``transpose``) and the two-level bitmap
encoder were rewritten with ``indptr``-diff expansions and blockwise
reductions; the seed's per-row / per-tile loops live on here as the
reference oracles.  Structure and values (indices, bitmaps, footprints,
cached nnz) must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.formats.bitmap import BitmapMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.hierarchical import TwoLevelBitmapMatrix, _blockwise_tile_nnz
from repro.utils.tiling import tile_ranges

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

shapes = st.one_of(
    st.sampled_from([(1, 1), (1, 9), (9, 1)]),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)
densities = st.sampled_from([0.0, 0.2, 0.6, 1.0])


@st.composite
def integer_dense(draw, shape=None):
    shape = shape or draw(shapes)
    density = draw(densities)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return np.where(
        rng.random(shape) < density, rng.integers(-8, 9, shape), 0
    ).astype(np.float64)


# --------------------------------------------------------------------- #
# The seed's loop implementations, kept verbatim as oracles.
# --------------------------------------------------------------------- #
def loop_to_dense(csr: CsrMatrix) -> np.ndarray:
    out = np.zeros(csr.shape, dtype=csr.values.dtype if csr.nnz else np.float32)
    for i in range(csr.shape[0]):
        cols, vals = csr.row(i)
        out[i, cols] = vals
    return out


def loop_tile_nnz(mask: np.ndarray, tile_rows: int, tile_cols: int) -> np.ndarray:
    spans_r = list(tile_ranges(mask.shape[0], tile_rows))
    spans_c = list(tile_ranges(mask.shape[1], tile_cols))
    out = np.zeros((len(spans_r), len(spans_c)), dtype=np.int64)
    for ti, (r0, r1) in enumerate(spans_r):
        for tj, (c0, c1) in enumerate(spans_c):
            out[ti, tj] = np.count_nonzero(mask[r0:r1, c0:c1])
    return out


class TestCsrAgainstLoopOracles:
    @SETTINGS
    @given(integer_dense())
    def test_to_dense_exact(self, dense):
        csr = CsrMatrix.from_dense(dense)
        assert np.array_equal(csr.to_dense(), loop_to_dense(csr))

    @SETTINGS
    @given(integer_dense())
    def test_transpose_structure_exact(self, dense):
        transposed = CsrMatrix.from_dense(dense).transpose()
        expected = CsrMatrix.from_dense(dense.T)
        assert transposed.shape == expected.shape
        assert np.array_equal(transposed.indptr, expected.indptr)
        assert np.array_equal(transposed.indices, expected.indices)
        assert np.array_equal(transposed.values, expected.values)

    def test_row_ids_is_indptr_diff_expansion(self):
        dense = np.array([[0.0, 5.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
        csr = CsrMatrix.from_dense(dense)
        assert list(csr.row_ids()) == [0, 2, 2]


class TestTwoLevelVectorizedEncoder:
    @SETTINGS
    @given(integer_dense(), st.sampled_from([(1, 1), (3, 5), (8, 8), (32, 16)]))
    def test_blockwise_occupancy_matches_loop(self, dense, tile_shape):
        mask = dense != 0
        assert np.array_equal(
            _blockwise_tile_nnz(mask, *tile_shape),
            loop_tile_nnz(mask, *tile_shape),
        )

    @SETTINGS
    @given(integer_dense(), st.sampled_from([(3, 5), (8, 8), (32, 16)]))
    def test_encoder_round_trip_and_cached_nnz(self, dense, tile_shape):
        encoded = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=tile_shape)
        assert np.array_equal(encoded.to_dense(), dense)
        assert encoded.nnz == np.count_nonzero(dense)
        # Cached per-tile counts agree with a fresh walk of the tiles.
        walked = sum(
            tile.encoding.nnz for tile in encoded.tiles if not tile.is_empty
        )
        assert encoded.nnz == walked

    @SETTINGS
    @given(integer_dense(), st.sampled_from([(3, 5), (8, 8), (32, 16)]))
    def test_footprint_matches_tile_walk(self, dense, tile_shape):
        encoded = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=tile_shape)
        element_bits = sum(
            tile.encoding.shape[0] * tile.encoding.shape[1]
            for tile in encoded.tiles
            if not tile.is_empty
        )
        expected = encoded.nnz * encoded.element_bytes + (
            encoded.warp_bitmap.size + element_bits + 7
        ) // 8
        assert encoded.footprint_bytes() == expected

    def test_manual_construction_still_computes_nnz(self):
        dense = np.eye(4)
        built = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=(2, 2))
        rebuilt = TwoLevelBitmapMatrix(
            shape=built.shape,
            tile_shape=built.tile_shape,
            warp_bitmap=built.warp_bitmap,
            tiles=built.tiles,
        )
        assert rebuilt.nnz == 4
        assert rebuilt.footprint_bytes() == built.footprint_bytes()


class TestBitmapTrustedPath:
    def test_from_dense_caches_nnz(self):
        matrix = BitmapMatrix.from_dense(np.eye(5))
        assert matrix.nnz == 5
        assert matrix._nnz == 5

    def test_public_constructor_still_validates(self):
        with pytest.raises(FormatError):
            BitmapMatrix(
                shape=(2, 2),
                bitmap=np.array([[True, False], [False, False]]),
                values=np.array([1.0, 2.0]),
            )

    def test_trusted_skips_popcount_but_matches_public(self):
        dense = np.array([[0.0, 3.0], [4.0, 0.0]])
        public = BitmapMatrix.from_dense(dense, order="row")
        trusted = BitmapMatrix._trusted(
            dense.shape, dense != 0, dense[dense != 0], "row", 2
        )
        assert trusted.nnz == public.nnz
        assert np.array_equal(trusted.to_dense(), public.to_dense())
        assert trusted.footprint_bytes() == public.footprint_bytes()
