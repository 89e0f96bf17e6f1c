"""Tests for the im2col cost model (Table III) and conv/GEMM method models
(Figure 22)."""

import numpy as np
import pytest

from repro.core.im2col_bitmap import bitmap_im2col
from repro.core.im2col_csr import csr_im2col
from repro.core.im2col_dense import dense_im2col
from repro.errors import ConfigError, ShapeError
from repro.kernels.conv_methods import (
    CONV_METHODS,
    GEMM_METHODS,
    ConvMethod,
    ConvMethodModel,
    GemmMethod,
    GemmMethodModel,
)
from repro.kernels.im2col_cost import Im2colCostModel, compare_im2col_methods
from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec


@pytest.fixture
def conv_spec():
    return ConvLayerSpec(
        name="test-conv",
        in_channels=64,
        out_channels=128,
        height=28,
        width=28,
        kernel=3,
        stride=1,
        padding=1,
        weight_sparsity=0.8,
        activation_sparsity=0.6,
        batch=8,
    )


@pytest.fixture
def gemm_spec():
    return GemmLayerSpec(
        name="test-gemm", m=512, k=1024, n=1024, weight_sparsity=0.9, activation_sparsity=0.0
    )


class TestLayerSpecs:
    def test_conv_gemm_dimensions(self, conv_spec):
        assert conv_spec.output_shape == (28, 28)
        assert conv_spec.gemm_m == 8 * 28 * 28
        assert conv_spec.gemm_k == 3 * 3 * 64
        assert conv_spec.gemm_n == 128
        assert conv_spec.macs == conv_spec.gemm_m * conv_spec.gemm_k * conv_spec.gemm_n

    def test_conv_spec_validation(self):
        with pytest.raises(ConfigError):
            ConvLayerSpec("bad", 0, 1, 8, 8, 3)
        with pytest.raises(ConfigError):
            ConvLayerSpec("bad", 1, 1, 8, 8, 3, weight_sparsity=1.5)

    def test_conv_spec_invalid_geometry(self):
        with pytest.raises(ShapeError):
            ConvLayerSpec("bad", 1, 1, 2, 2, 5).output_shape

    def test_conv_element_counts(self, conv_spec):
        assert conv_spec.feature_map_elements == 8 * 64 * 28 * 28
        assert conv_spec.weight_elements == 128 * 64 * 3 * 3
        assert conv_spec.weight_elements == conv_spec.gemm_k * conv_spec.gemm_n

    @pytest.mark.parametrize("stride", [0, -1])
    def test_conv_spec_rejects_non_positive_stride(self, stride):
        with pytest.raises(ConfigError):
            ConvLayerSpec("bad", 1, 1, 8, 8, 3, stride=stride)

    def test_gemm_spec_macs(self, gemm_spec):
        assert gemm_spec.macs == 512 * 1024 * 1024

    def test_gemm_spec_validation(self):
        with pytest.raises(ConfigError):
            GemmLayerSpec("bad", 0, 8, 8)


class TestIm2colCostModel:
    def test_table3_shape(self, rng):
        spec = ConvLayerSpec("t3", 32, 32, 28, 28, 3, 1, 1)
        low = compare_im2col_methods(spec, 0.0, rng)
        mid = compare_im2col_methods(spec, 0.5, rng)
        high = compare_im2col_methods(spec, 0.999, rng)
        # CSR one order of magnitude slower than bitmap at low sparsity.
        assert low.csr_normalized > 10 * low.bitmap_normalized
        assert low.csr_normalized > 50
        # Both improve with sparsity and approach the dense cost.
        assert mid.csr_normalized < low.csr_normalized
        assert mid.bitmap_normalized < low.bitmap_normalized
        assert high.csr_normalized < 3.0
        assert high.bitmap_normalized < 1.6

    def test_dense_always_normalised_to_one(self, rng):
        spec = ConvLayerSpec("t3", 16, 16, 16, 16, 3, 1, 1)
        comparison = compare_im2col_methods(spec, 0.3, rng)
        assert comparison.dense_normalized == 1.0

    def test_decode_cycles_scale_with_geometry(self):
        from repro.core.im2col_bitmap import BitmapIm2colStats

        model = Im2colCostModel()
        small = BitmapIm2colStats(mask_ops=100, shift_ops=200, popc_ops=300)
        large = BitmapIm2colStats(mask_ops=1000, shift_ops=2000, popc_ops=3000)
        assert model.bitmap_decode_cycles(large) > model.bitmap_decode_cycles(small)

    @pytest.mark.parametrize("variant", ["dense", "csr", "bitmap"])
    def test_cost_dispatches_on_stats_type(self, rng, variant):
        feature_map = np.where(rng.random((3, 9, 9)) < 0.4, 1.0, 0.0)
        model = Im2colCostModel()
        if variant == "dense":
            _, stats = dense_im2col(feature_map, 3, 1, 1)
            expected = model.dense_cost(stats)
        elif variant == "csr":
            _, stats = csr_im2col(feature_map, 3, 1, 1)
            expected = model.csr_cost(stats)
        else:
            stats = bitmap_im2col(feature_map, 3, 1, 1).stats
            expected = model.bitmap_cost(stats)
        assert expected > 0
        assert model.cost(stats) == expected

    def test_cost_rejects_unknown_stats(self):
        with pytest.raises(TypeError):
            Im2colCostModel().cost(object())

    def test_sparsity_validation(self, rng):
        spec = ConvLayerSpec("t3", 4, 4, 8, 8, 3, 1, 1)
        with pytest.raises(ConfigError):
            compare_im2col_methods(spec, 1.5, rng)


class TestConvMethodModel:
    def test_all_methods_estimated(self, conv_spec):
        estimates = ConvMethodModel().estimate_all(conv_spec)
        assert set(estimates) == set(CONV_METHODS)
        assert all(estimate.time_us > 0 for estimate in estimates.values())

    def test_dual_sparse_is_fastest(self, conv_spec):
        estimates = ConvMethodModel().estimate_all(conv_spec)
        dual = estimates[ConvMethod.DUAL_SPARSE_IMPLICIT].time_us
        assert dual == min(estimate.time_us for estimate in estimates.values())

    def test_implicit_beats_explicit(self, conv_spec):
        estimates = ConvMethodModel().estimate_all(conv_spec)
        assert (
            estimates[ConvMethod.DENSE_IMPLICIT].time_us
            < estimates[ConvMethod.DENSE_EXPLICIT].time_us
        )
        assert (
            estimates[ConvMethod.SINGLE_SPARSE_IMPLICIT].time_us
            < estimates[ConvMethod.SINGLE_SPARSE_EXPLICIT].time_us
        )

    def test_dual_sparse_beats_single_sparse(self, conv_spec):
        estimates = ConvMethodModel().estimate_all(conv_spec)
        assert (
            estimates[ConvMethod.DUAL_SPARSE_IMPLICIT].time_us
            < estimates[ConvMethod.SINGLE_SPARSE_IMPLICIT].time_us
        )

    def test_dense_activation_collapses_dual_to_single(self, conv_spec):
        """With a dense feature map, dual-side equals single-side implicit."""
        spec = ConvLayerSpec(
            name=conv_spec.name,
            in_channels=conv_spec.in_channels,
            out_channels=conv_spec.out_channels,
            height=conv_spec.height,
            width=conv_spec.width,
            kernel=conv_spec.kernel,
            stride=conv_spec.stride,
            padding=conv_spec.padding,
            weight_sparsity=conv_spec.weight_sparsity,
            activation_sparsity=0.0,
            batch=conv_spec.batch,
        )
        model = ConvMethodModel()
        dual = model.dual_sparse_implicit(spec)
        single = model.single_sparse_implicit(spec)
        assert dual.timing.compute_cycles == pytest.approx(single.timing.compute_cycles)

    def test_unknown_method_rejected(self, conv_spec):
        with pytest.raises(ConfigError):
            ConvMethodModel().estimate(conv_spec, "Magic Method")

    def test_details_carry_layer_metadata(self, conv_spec):
        estimate = ConvMethodModel().dense_implicit(conv_spec)
        assert estimate.details["layer"] == "test-conv"
        assert estimate.details["gemm_shape"] == (
            conv_spec.gemm_m,
            conv_spec.gemm_n,
            conv_spec.gemm_k,
        )


class TestGemmMethodModel:
    def test_all_methods_estimated(self, gemm_spec):
        estimates = GemmMethodModel().estimate_all(gemm_spec)
        assert set(estimates) == set(GEMM_METHODS)

    def test_dual_beats_single_at_high_weight_sparsity(self, gemm_spec):
        estimates = GemmMethodModel().estimate_all(gemm_spec)
        assert (
            estimates[GemmMethod.DUAL_SPARSE].time_us
            < estimates[GemmMethod.SINGLE_SPARSE].time_us
            < estimates[GemmMethod.DENSE].time_us
        )

    def test_single_sparse_near_cap_for_pruned_weights(self, gemm_spec):
        estimates = GemmMethodModel().estimate_all(gemm_spec)
        speedup = (
            estimates[GemmMethod.DENSE].time_us
            / estimates[GemmMethod.SINGLE_SPARSE].time_us
        )
        assert 1.4 < speedup < 1.9

    def test_unknown_method_rejected(self, gemm_spec):
        with pytest.raises(ConfigError):
            GemmMethodModel().estimate(gemm_spec, "Quantum GEMM")

    def test_kernel_estimate_speedup_helper(self, gemm_spec):
        estimates = GemmMethodModel().estimate_all(gemm_spec)
        dense = estimates[GemmMethod.DENSE]
        dual = estimates[GemmMethod.DUAL_SPARSE]
        assert dual.speedup_over(dense) > 1.0
        assert dense.speedup_over(dual) < 1.0
