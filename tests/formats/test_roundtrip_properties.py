"""Property-based round-trip tests for the sparse formats.

Hypothesis drives randomized (shape, density, pattern) draws — including
zero-sized, 1×N, N×1 and non-tile-aligned matrices — through each
encoding's ``from_dense`` / ``to_dense`` and asserts the dense round trip
is value-exact and structure-preserving.  Runs are derandomized so CI is
deterministic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.formats.bitmap import BitmapMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.hierarchical import TwoLevelBitmapMatrix

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

#: Shapes stressing the edge cases: empty axes, single row/column, and
#: dimensions that do not divide the 32x32 warp tile.
shapes = st.one_of(
    st.sampled_from([(0, 5), (5, 0), (0, 0), (1, 1)]),
    st.tuples(st.just(1), st.integers(1, 70)),
    st.tuples(st.integers(1, 70), st.just(1)),
    st.tuples(st.integers(1, 70), st.integers(1, 70)),
)

densities = st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])


@st.composite
def dense_matrices(draw):
    shape = draw(shapes)
    density = draw(densities)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    values = rng.uniform(0.5, 1.5, shape).astype(np.float32)
    return np.where(mask, values, 0.0).astype(np.float32)


@st.composite
def tile_shapes(draw):
    return (draw(st.sampled_from([1, 3, 8, 32])), draw(st.sampled_from([1, 5, 16, 32])))


class TestDenseRoundTrips:
    @SETTINGS
    @given(dense=dense_matrices())
    def test_csr(self, dense):
        assert np.array_equal(CsrMatrix.from_dense(dense).to_dense(), dense)

    @SETTINGS
    @given(dense=dense_matrices(), order=st.sampled_from(["col", "row"]))
    def test_bitmap(self, dense, order):
        encoded = BitmapMatrix.from_dense(dense, order=order)
        assert np.array_equal(encoded.to_dense(), dense)

    @SETTINGS
    @given(dense=dense_matrices(), tile_shape=tile_shapes())
    def test_hierarchical(self, dense, tile_shape):
        encoded = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=tile_shape)
        assert np.array_equal(encoded.to_dense(), dense)


class TestStructuralInvariants:
    @SETTINGS
    @given(dense=dense_matrices(), tile_shape=tile_shapes())
    def test_nnz_preserved_everywhere(self, dense, tile_shape):
        nnz = int(np.count_nonzero(dense))
        assert CsrMatrix.from_dense(dense).nnz == nnz
        assert BitmapMatrix.from_dense(dense).nnz == nnz
        assert TwoLevelBitmapMatrix.from_dense(dense, tile_shape=tile_shape).nnz == nnz

    @SETTINGS
    @given(dense=dense_matrices())
    def test_hierarchical_empty_tiles_not_encoded(self, dense):
        encoded = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=(8, 8))
        for tile in encoded.tiles:
            assert tile.is_empty == (tile.encoding is None)

    def test_zero_matrix_has_no_payload(self):
        dense = np.zeros((64, 48), dtype=np.float32)
        assert CsrMatrix.from_dense(dense).nnz == 0
        assert BitmapMatrix.from_dense(dense).nnz == 0
        encoded = TwoLevelBitmapMatrix.from_dense(dense, tile_shape=(32, 32))
        assert encoded.occupied_tile_fraction == 0.0


class TestCrossFormatValueOrder:
    """The kept encodings of one matrix store the same values in the order
    their consumers expect: CSR and the row-major bitmap scan rows, the
    column-major bitmap (matrix A's layout) scans columns."""

    @SETTINGS
    @given(dense=dense_matrices())
    def test_csr_values_are_row_major_bitmap_values(self, dense):
        csr = CsrMatrix.from_dense(dense)
        bitmap = BitmapMatrix.from_dense(dense, order="row")
        assert np.array_equal(csr.values, bitmap.values)
        assert np.array_equal(csr.indices, np.nonzero(bitmap.bitmap)[1])

    @SETTINGS
    @given(dense=dense_matrices())
    def test_csr_transpose_values_are_column_major_bitmap_values(self, dense):
        transposed = CsrMatrix.from_dense(dense).transpose()
        bitmap = BitmapMatrix.from_dense(dense, order="col")
        assert np.array_equal(transposed.values, bitmap.values)
        assert np.array_equal(transposed.row_nnz(), bitmap.bitmap.sum(axis=0))
