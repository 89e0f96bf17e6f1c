"""Tests for the CSR format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeError
from repro.formats.csr import CsrMatrix


def _random_dense(seed, shape=(13, 9), density=0.3):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    return np.where(mask, rng.uniform(0.5, 1.5, shape), 0.0)


class TestCsrMatrix:
    def test_round_trip(self):
        dense = _random_dense(2)
        csr = CsrMatrix.from_dense(dense)
        assert np.allclose(csr.to_dense(), dense)

    def test_row_access(self):
        dense = np.array([[0.0, 5.0, 0.0], [1.0, 0.0, 2.0]])
        csr = CsrMatrix.from_dense(dense)
        cols, vals = csr.row(1)
        assert list(cols) == [0, 2]
        assert list(vals) == [1.0, 2.0]

    def test_row_out_of_range(self):
        csr = CsrMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            csr.row(7)

    def test_row_nnz(self):
        dense = np.array([[0.0, 5.0, 0.0], [1.0, 0.0, 2.0]])
        csr = CsrMatrix.from_dense(dense)
        assert list(csr.row_nnz()) == [1, 2]

    def test_transpose(self):
        dense = _random_dense(7, (5, 9))
        assert np.allclose(CsrMatrix.from_dense(dense).transpose().to_dense(), dense.T)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(FormatError):
            CsrMatrix(
                shape=(2, 2),
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                values=np.array([1.0]),
            )

    @pytest.mark.parametrize(
        "indptr,indices,values",
        [
            ([1, 1, 1], [0], [1.0]),
            ([0, 1, 2], [0], [1.0]),
            ([0, 2, 1], [0], [1.0]),
            ([0, 1, 1], [0], [1.0, 2.0]),
            ([0, 1, 1], [2], [1.0]),
            ([0, 1, 1], [-1], [1.0]),
        ],
        ids=[
            "indptr-not-from-zero",
            "indptr-not-ending-at-nnz",
            "indptr-decreasing",
            "indices-values-length",
            "column-past-end",
            "negative-column",
        ],
    )
    def test_inconsistent_arrays_rejected(self, indptr, indices, values):
        with pytest.raises(FormatError):
            CsrMatrix(shape=(2, 2), indptr=indptr, indices=indices, values=values)

    def test_density(self):
        csr = CsrMatrix.from_dense(np.array([[0.0, 5.0, 0.0], [1.0, 0.0, 2.0]]))
        assert csr.density == pytest.approx(0.5)

    def test_density_of_empty_shape_is_zero(self):
        assert CsrMatrix.from_dense(np.zeros((0, 4))).density == 0.0

    def test_footprint_accounts_for_indices(self):
        dense = _random_dense(8)
        csr = CsrMatrix.from_dense(dense)
        expected = csr.nnz * (2 + 4) + (dense.shape[0] + 1) * 4
        assert csr.footprint_bytes() == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        dense = _random_dense(seed, (7, 11), density=0.4)
        assert np.allclose(CsrMatrix.from_dense(dense).to_dense(), dense)
