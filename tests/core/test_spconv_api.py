"""Tests for the dual-side sparse convolution and the public API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseMatrix, sparse_im2col, spconv, spgemm
from repro.core.reference import conv_output_shape, reference_conv2d, reference_gemm
from repro.core.spconv import sparse_conv2d
from repro.errors import ConfigError, ShapeError
from repro.sparsity.generators import random_sparse_matrix


def _conv_inputs(rng, channels=3, height=8, width=10, filters=4, kernel=3, density=0.4):
    fm = random_sparse_matrix((channels * height, width), density, rng).reshape(
        channels, height, width
    )
    weights = random_sparse_matrix(
        (filters, channels * kernel * kernel), 0.3, rng
    ).reshape(filters, channels, kernel, kernel)
    return fm, weights


class TestReference:
    def test_conv_output_shape(self):
        assert conv_output_shape(8, 10, 3, 1, 1) == (8, 10)
        assert conv_output_shape(9, 9, 3, 2, 0) == (4, 4)

    def test_conv_output_shape_invalid(self):
        with pytest.raises(ShapeError):
            conv_output_shape(2, 2, 5, 1, 0)

    def test_reference_gemm_shape_check(self):
        with pytest.raises(ShapeError):
            reference_gemm(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_reference_conv_channel_mismatch(self):
        with pytest.raises(ShapeError):
            reference_conv2d(np.zeros((3, 4, 4)), np.zeros((2, 4, 3, 3)))

    @pytest.mark.parametrize(
        "fm_shape,w_shape,padding",
        [((4, 4), (2, 1, 3, 3), 0), ((1, 4, 4), (1, 3, 3), 0), ((1, 2, 2), (1, 1, 5, 5), 1)],
        ids=["2d-feature-map", "3d-weights", "empty-output"],
    )
    def test_reference_conv_rejects_bad_shapes(self, fm_shape, w_shape, padding):
        with pytest.raises(ShapeError):
            reference_conv2d(np.zeros(fm_shape), np.zeros(w_shape), padding=padding)


class TestSparseConv2d:
    def test_matches_reference(self, rng):
        fm, weights = _conv_inputs(rng)
        result = sparse_conv2d(fm, weights, stride=1, padding=1)
        assert np.allclose(result.output, reference_conv2d(fm, weights, 1, 1))

    def test_matches_reference_no_padding(self, rng):
        fm, weights = _conv_inputs(rng)
        result = sparse_conv2d(fm, weights, stride=1, padding=0)
        assert np.allclose(result.output, reference_conv2d(fm, weights, 1, 0))

    def test_matches_reference_strided(self, rng):
        fm, weights = _conv_inputs(rng, height=11, width=11)
        result = sparse_conv2d(fm, weights, stride=2, padding=1)
        assert np.allclose(result.output, reference_conv2d(fm, weights, 2, 1))

    def test_output_shape(self, rng):
        fm, weights = _conv_inputs(rng, filters=6)
        result = sparse_conv2d(fm, weights, stride=1, padding=1)
        assert result.output.shape == (6, 8, 10)

    def test_stats_report_sparsities(self, rng):
        fm, weights = _conv_inputs(rng, density=0.25)
        stats = sparse_conv2d(fm, weights, 1, 1).stats
        assert stats.activation_sparsity == pytest.approx(
            1.0 - np.count_nonzero(fm) / fm.size
        )
        assert stats.weight_sparsity == pytest.approx(
            1.0 - np.count_nonzero(weights) / weights.size
        )
        assert stats.lowered_shape == (80, 27)

    def test_channel_mismatch_rejected(self, rng):
        fm, _ = _conv_inputs(rng)
        bad_weights = np.zeros((4, 5, 3, 3))
        with pytest.raises(ShapeError):
            sparse_conv2d(fm, bad_weights)

    def test_unknown_backend_rejected(self, rng):
        fm, weights = _conv_inputs(rng)
        with pytest.raises(ConfigError):
            sparse_conv2d(fm, weights, backend="gpu")

    def test_feature_map_rank_check(self, rng):
        _, weights = _conv_inputs(rng)
        with pytest.raises(ShapeError):
            sparse_conv2d(np.ones((8, 10)), weights)

    def test_weight_rank_check(self, rng):
        fm, _ = _conv_inputs(rng)
        with pytest.raises(ShapeError):
            sparse_conv2d(fm, np.zeros((4, 3, 3)))

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        fm, weights = _conv_inputs(rng, density=float(rng.uniform(0.1, 0.8)))
        result = sparse_conv2d(fm, weights, stride=1, padding=1)
        assert np.allclose(result.output, reference_conv2d(fm, weights, 1, 1))


class TestPublicApi:
    def test_sparse_matrix_round_trip(self, make_sparse):
        dense = make_sparse((40, 30), 0.3)
        matrix = SparseMatrix.from_dense(dense)
        assert matrix.shape == (40, 30)
        assert matrix.nnz == np.count_nonzero(dense)
        assert matrix.density + matrix.sparsity == pytest.approx(1.0)
        assert np.allclose(matrix.encoding.to_dense(), dense)

    def test_sparse_matrix_two_level(self, make_sparse):
        dense = make_sparse((64, 32), 0.2)
        two_level = SparseMatrix.from_dense(dense).two_level((32, 16))
        assert np.allclose(two_level.to_dense(), dense)

    def test_sparse_matrix_footprint(self, make_sparse):
        dense = make_sparse((64, 64), 0.1)
        assert SparseMatrix.from_dense(dense).footprint_bytes() < dense.size * 2

    def test_spgemm_accepts_wrappers_and_arrays(self, make_sparse):
        a = make_sparse((64, 48), 0.3)
        b = make_sparse((48, 64), 0.3)
        from_wrappers = spgemm(
            SparseMatrix.from_dense(a, "col"), SparseMatrix.from_dense(b, "row")
        )
        from_arrays = spgemm(a, b)
        assert np.allclose(from_wrappers.dense, from_arrays.dense)
        assert np.allclose(from_wrappers.dense, reference_gemm(a, b))

    def test_spgemm_shape_mismatch(self, make_sparse):
        with pytest.raises(ShapeError):
            spgemm(make_sparse((8, 8), 0.5), make_sparse((9, 8), 0.5))

    def test_spgemm_reports_speedup(self, make_sparse):
        result = spgemm(make_sparse((64, 64), 0.2), make_sparse((64, 64), 0.2))
        assert result.instruction_speedup > 1.0

    def test_sparse_im2col_api(self, rng):
        fm, _ = _conv_inputs(rng)
        result = sparse_im2col(fm, kernel=3, stride=1, padding=1)
        assert result.lowered.shape == (80, 27)
        assert result.stats.value_reads == np.count_nonzero(result.lowered)

    def test_spconv_api_matches_reference(self, rng):
        fm, weights = _conv_inputs(rng)
        result = spconv(fm, weights, stride=1, padding=1)
        assert np.allclose(result.output, reference_conv2d(fm, weights, 1, 1))

    def test_package_exports(self):
        import repro

        assert repro.__version__
        for name in ("SparseMatrix", "spgemm", "spconv", "sparse_im2col"):
            assert hasattr(repro, name)

    def test_unknown_package_attribute_raises_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute 'spgemm_v2'"):
            repro.spgemm_v2

    def test_dir_lists_every_lazy_export(self):
        import repro

        listed = dir(repro)
        assert set(repro.__all__) <= set(listed)
        assert listed == sorted(listed)
