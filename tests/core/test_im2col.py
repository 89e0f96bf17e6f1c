"""Tests for the three im2col variants (dense, CSR, bitmap)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.im2col_bitmap import bitmap_im2col, count_bitmap_im2col_ops
from repro.core.im2col_csr import count_csr_im2col_ops, csr_im2col, encode_feature_map_csr
from repro.core.im2col_dense import conv2d_via_im2col, dense_im2col, flatten_weights
from repro.core.reference import reference_conv2d
from repro.errors import ShapeError
from repro.sparsity.generators import random_sparse_matrix


def _feature_map(rng, channels=3, height=7, width=9, density=0.4):
    return random_sparse_matrix((channels * height, width), density, rng).reshape(
        channels, height, width
    )


class TestDenseIm2col:
    def test_lowered_shape(self, rng):
        fm = _feature_map(rng)
        lowered, stats = dense_im2col(fm, kernel=3, stride=1, padding=1)
        assert lowered.shape == (7 * 9, 3 * 3 * 3)
        assert stats.lowered_shape == lowered.shape

    def test_paper_figure1_dimensions(self, rng):
        """A 3x6 feature map with a 3x3 kernel lowers to 4x9 (Figure 10a)."""
        fm = _feature_map(rng, channels=1, height=3, width=6)
        lowered, _ = dense_im2col(fm, kernel=3)
        assert lowered.shape == (4, 9)

    def test_conv_via_im2col_matches_reference(self, rng):
        fm = _feature_map(rng)
        weights = random_sparse_matrix((4, 27), 0.5, rng).reshape(4, 3, 3, 3)
        assert np.allclose(
            conv2d_via_im2col(fm, weights, 1, 1), reference_conv2d(fm, weights, 1, 1)
        )

    def test_strided_conv_via_im2col(self, rng):
        fm = _feature_map(rng, height=9, width=9)
        weights = random_sparse_matrix((2, 27), 0.5, rng).reshape(2, 3, 3, 3)
        assert np.allclose(
            conv2d_via_im2col(fm, weights, 2, 0), reference_conv2d(fm, weights, 2, 0)
        )

    def test_flatten_weights_ordering(self):
        weights = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(2, 3, 2, 2)
        flat = flatten_weights(weights)
        assert flat.shape == (12, 2)
        assert flat[0, 0] == weights[0, 0, 0, 0]
        assert flat[0, 1] == weights[1, 0, 0, 0]

    def test_rejects_2d_feature_map(self):
        with pytest.raises(ShapeError):
            dense_im2col(np.zeros((4, 4)), 3)

    def test_rejects_bad_weights(self):
        with pytest.raises(ShapeError):
            flatten_weights(np.zeros((2, 3)))


class TestCsrIm2col:
    def test_matches_dense_lowering(self, rng):
        fm = _feature_map(rng)
        dense_lowered, _ = dense_im2col(fm, 3, 1, 1)
        csr_lowered, _ = csr_im2col(fm, 3, 1, 1)
        assert np.allclose(csr_lowered, dense_lowered)

    def test_matches_dense_lowering_strided(self, rng):
        fm = _feature_map(rng, height=9, width=11)
        dense_lowered, _ = dense_im2col(fm, 3, 2, 1)
        csr_lowered, _ = csr_im2col(fm, 3, 2, 1)
        assert np.allclose(csr_lowered, dense_lowered)

    def test_value_reads_equal_lowered_nonzeros(self, rng):
        fm = _feature_map(rng)
        lowered, stats = csr_im2col(fm, 3, 1, 1)
        assert stats.value_reads == np.count_nonzero(lowered)

    def test_data_dependent_reads_positive(self, rng):
        fm = _feature_map(rng)
        _, stats = csr_im2col(fm, 3, 1, 1)
        assert stats.data_dependent_reads > 0

    def test_analytic_counter_matches_functional_values(self, rng):
        fm = _feature_map(rng)
        _, functional = csr_im2col(fm, 3, 1, 1)
        counted = count_csr_im2col_ops(fm != 0, 3, 1, 1)
        assert counted.value_reads == functional.value_reads
        assert counted.indptr_reads == functional.indptr_reads
        assert counted.lowered_shape == functional.lowered_shape

    def test_encode_feature_map_one_csr_per_channel(self, rng):
        fm = _feature_map(rng)
        encoded = encode_feature_map_csr(fm)
        assert len(encoded) == fm.shape[0]
        for channel, csr in zip(fm, encoded):
            assert np.array_equal(csr.to_dense(), channel)

    @pytest.mark.parametrize(
        "lower",
        [
            encode_feature_map_csr,
            lambda fm: csr_im2col(fm, 3),
            lambda fm: count_csr_im2col_ops(fm != 0, 3),
            lambda fm: count_bitmap_im2col_ops(fm != 0, 3),
        ],
        ids=["encode", "csr_im2col", "count_csr", "count_bitmap"],
    )
    def test_rejects_2d_feature_map(self, lower):
        with pytest.raises(ShapeError):
            lower(np.ones((6, 6)))


class TestBitmapIm2col:
    def test_matches_dense_lowering(self, rng):
        fm = _feature_map(rng)
        dense_lowered, _ = dense_im2col(fm, 3, 1, 1)
        result = bitmap_im2col(fm, 3, 1, 1)
        assert np.allclose(result.lowered, dense_lowered)

    def test_matches_dense_lowering_strided(self, rng):
        fm = _feature_map(rng, height=11, width=9)
        dense_lowered, _ = dense_im2col(fm, 5, 2, 2)
        result = bitmap_im2col(fm, 5, 2, 2)
        assert np.allclose(result.lowered, dense_lowered)

    def test_encoding_is_consistent_with_lowered(self, rng):
        fm = _feature_map(rng)
        result = bitmap_im2col(fm, 3, 1, 1)
        assert np.allclose(result.encoding.to_dense(), result.lowered)
        assert result.encoding.order == "col"

    def test_value_reads_equal_lowered_nonzeros(self, rng):
        fm = _feature_map(rng)
        result = bitmap_im2col(fm, 3, 1, 1)
        assert result.stats.value_reads == np.count_nonzero(result.lowered)

    def test_register_ops_independent_of_density(self, rng):
        """Mask/shift/POPC counts depend only on the geometry, not the data."""
        sparse_fm = _feature_map(rng, density=0.1)
        dense_fm = np.ones_like(sparse_fm)
        sparse_ops = bitmap_im2col(sparse_fm, 3, 1, 1).stats.register_ops
        dense_ops = bitmap_im2col(dense_fm, 3, 1, 1).stats.register_ops
        assert sparse_ops == dense_ops

    def test_analytic_counter_matches_functional(self, rng):
        fm = _feature_map(rng)
        functional = bitmap_im2col(fm, 3, 1, 1).stats
        counted = count_bitmap_im2col_ops(fm != 0, 3, 1, 1)
        assert counted.value_reads == functional.value_reads
        assert counted.popc_ops == functional.popc_ops
        assert counted.row_loads == functional.row_loads
        assert counted.lowered_shape == functional.lowered_shape

    def test_rejects_2d_input(self):
        with pytest.raises(ShapeError):
            bitmap_im2col(np.zeros((4, 4)), 3)

    @given(st.integers(0, 2000), st.floats(0.05, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_bitmap_equals_dense_property(self, seed, density):
        rng = np.random.default_rng(seed)
        fm = random_sparse_matrix((2 * 8, 8), density, rng).reshape(2, 8, 8)
        dense_lowered, _ = dense_im2col(fm, 3, 1, 1)
        assert np.allclose(bitmap_im2col(fm, 3, 1, 1).lowered, dense_lowered)
