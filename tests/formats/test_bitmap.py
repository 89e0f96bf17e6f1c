"""Tests for the one-level bitmap encoding (Figure 2b)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeError
from repro.formats.bitmap import BitmapMatrix


def _random_dense(seed, shape=(12, 10), density=0.35):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    return np.where(mask, rng.uniform(0.5, 1.5, shape), 0.0)


class TestConstruction:
    def test_round_trip_column_major(self):
        dense = _random_dense(0)
        encoded = BitmapMatrix.from_dense(dense, order="col")
        assert np.allclose(encoded.to_dense(), dense)

    def test_round_trip_row_major(self):
        dense = _random_dense(1)
        encoded = BitmapMatrix.from_dense(dense, order="row")
        assert np.allclose(encoded.to_dense(), dense)

    def test_value_order_column_major(self):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        encoded = BitmapMatrix.from_dense(dense, order="col")
        assert list(encoded.values) == [1.0, 2.0, 3.0]

    def test_value_order_row_major(self):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        encoded = BitmapMatrix.from_dense(dense, order="row")
        assert list(encoded.values) == [1.0, 2.0, 3.0]
        dense2 = np.array([[0.0, 4.0], [5.0, 0.0]])
        assert list(BitmapMatrix.from_dense(dense2, order="row").values) == [4.0, 5.0]
        assert list(BitmapMatrix.from_dense(dense2, order="col").values) == [5.0, 4.0]

    def test_invalid_order_rejected(self):
        with pytest.raises(FormatError):
            BitmapMatrix.from_dense(np.eye(2), order="diagonal")

    def test_inconsistent_bitmap_and_values_rejected(self):
        with pytest.raises(FormatError):
            BitmapMatrix(
                shape=(2, 2),
                bitmap=np.array([[True, False], [False, False]]),
                values=np.array([1.0, 2.0]),
            )

    def test_values_must_be_condensed_1d(self):
        with pytest.raises(FormatError):
            BitmapMatrix(
                shape=(2, 2),
                bitmap=np.ones((2, 2), dtype=bool),
                values=np.ones((2, 2)),
            )

    def test_bitmap_shape_must_match(self):
        with pytest.raises(FormatError):
            BitmapMatrix(
                shape=(2, 3),
                bitmap=np.zeros((2, 2), dtype=bool),
                values=np.array([]),
            )


class TestSlices:
    def test_column_slice(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
        encoded = BitmapMatrix.from_dense(dense, order="col")
        bits, values = encoded.column(1)
        assert list(bits) == [False, True, True]
        assert list(values) == [2.0, 4.0]

    def test_row_slice(self):
        dense = np.array([[1.0, 0.0, 5.0], [0.0, 2.0, 0.0]])
        encoded = BitmapMatrix.from_dense(dense, order="row")
        bits, values = encoded.row(0)
        assert list(bits) == [True, False, True]
        assert list(values) == [1.0, 5.0]

    def test_column_requires_column_major(self):
        encoded = BitmapMatrix.from_dense(np.eye(3), order="row")
        with pytest.raises(FormatError):
            encoded.column(0)

    def test_row_requires_row_major(self):
        encoded = BitmapMatrix.from_dense(np.eye(3), order="col")
        with pytest.raises(FormatError):
            encoded.row(0)

    def test_row_out_of_range(self):
        encoded = BitmapMatrix.from_dense(np.eye(3), order="row")
        with pytest.raises(ShapeError):
            encoded.row(3)

    def test_column_out_of_range(self):
        encoded = BitmapMatrix.from_dense(np.eye(3), order="col")
        with pytest.raises(ShapeError):
            encoded.column(5)

    def test_all_columns_reconstruct_matrix(self):
        dense = _random_dense(3)
        encoded = BitmapMatrix.from_dense(dense, order="col")
        rebuilt = np.zeros_like(dense)
        for j in range(dense.shape[1]):
            bits, values = encoded.column(j)
            rebuilt[bits, j] = values
        assert np.allclose(rebuilt, dense)


class TestStatistics:
    def test_nnz_and_density(self):
        dense = np.array([[1.0, 0.0], [0.0, 0.0]])
        encoded = BitmapMatrix.from_dense(dense)
        assert encoded.nnz == 1
        assert encoded.density == 0.25
        assert encoded.sparsity == 0.75

    def test_footprint_smaller_than_dense_when_sparse(self):
        dense = _random_dense(4, (64, 64), density=0.1)
        encoded = BitmapMatrix.from_dense(dense)
        dense_bytes = dense.size * 2
        assert encoded.footprint_bytes() < dense_bytes

    def test_footprint_formula(self):
        dense = np.eye(8)
        encoded = BitmapMatrix.from_dense(dense)
        assert encoded.footprint_bytes() == 8 * 2 + 8  # 8 values + 64 bits

    def test_packed_bitmap_length(self):
        dense = _random_dense(5, (10, 10))
        encoded = BitmapMatrix.from_dense(dense)
        assert encoded.packed_bitmap().size == (100 + 31) // 32

    @given(st.integers(0, 10_000), st.sampled_from(["col", "row"]))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed, order):
        dense = _random_dense(seed, (9, 13), density=0.4)
        encoded = BitmapMatrix.from_dense(dense, order=order)
        assert np.allclose(encoded.to_dense(), dense)
        assert encoded.nnz == np.count_nonzero(dense)
