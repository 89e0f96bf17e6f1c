"""Tests for the four GEMM kernel cost models (Figure 21 methods)."""

import numpy as np
import pytest

from repro.core.spgemm_device import device_spgemm
from repro.errors import ConfigError
from repro.kernels.gemm_cusparse import CusparseGemm
from repro.kernels.gemm_dense import CutlassGemm
from repro.kernels.gemm_dual_sparse import DualSparseGemm
from repro.kernels.gemm_sparse_tc import SparseTensorCoreGemm
from repro.sparsity.generators import random_sparse_matrix

SIZE = 4096


@pytest.fixture(scope="module")
def cutlass_baseline():
    return CutlassGemm().estimate_from_shape(SIZE, SIZE, SIZE)


class TestCutlassGemm:
    def test_large_gemm_is_compute_bound(self, cutlass_baseline):
        assert cutlass_baseline.timing.bound == "compute"
        assert cutlass_baseline.time_us > 0

    def test_time_scales_with_work(self):
        kernel = CutlassGemm()
        small = kernel.estimate_from_shape(1024, 1024, 1024)
        large = kernel.estimate_from_shape(2048, 2048, 2048)
        assert large.time_us > small.time_us

    def test_estimate_ignores_sparsity(self, make_sparse):
        kernel = CutlassGemm()
        sparse = kernel.estimate(make_sparse((256, 256), 0.1), make_sparse((256, 256), 0.1))
        dense = kernel.estimate_from_shape(256, 256, 256)
        assert sparse.time_us == pytest.approx(dense.time_us)

    def test_invalid_shape(self):
        with pytest.raises(ConfigError):
            CutlassGemm().estimate_from_shape(0, 8, 8)


class TestCusparseGemm:
    def test_slower_than_dense_at_90_percent(self, cutlass_baseline):
        estimate = CusparseGemm().estimate_from_sparsity(SIZE, SIZE, SIZE, 0.90, 0.99)
        ratio = estimate.time_us / cutlass_baseline.time_us
        assert 1.4 < ratio < 2.2  # paper: ~1.75x slower

    def test_faster_than_dense_only_at_extreme_sparsity(self, cutlass_baseline):
        kernel = CusparseGemm()
        at_95 = kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, 0.95, 0.99)
        at_999 = kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, 0.999, 0.99)
        assert at_95.time_us > cutlass_baseline.time_us * 0.95
        assert cutlass_baseline.time_us / at_999.time_us == pytest.approx(1.67, abs=0.25)

    def test_monotone_in_a_sparsity(self):
        kernel = CusparseGemm()
        times = [
            kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, s, 0.99).time_us
            for s in (0.9, 0.95, 0.99, 0.999)
        ]
        assert times == sorted(times, reverse=True)

    def test_estimate_from_matrices(self, make_sparse):
        a = make_sparse((256, 256), 0.1)
        b = make_sparse((256, 256), 0.01)
        estimate = CusparseGemm().estimate(a, b)
        assert estimate.details["nnz_a"] == pytest.approx(np.count_nonzero(a))

    def test_sparsity_validation(self):
        with pytest.raises(ConfigError):
            CusparseGemm().estimate_from_sparsity(8, 8, 8, 1.5, 0.5)


class TestSparseTensorCoreGemm:
    def test_flat_186x_speedup_at_75_percent(self, cutlass_baseline):
        estimate = SparseTensorCoreGemm().estimate_from_sparsity(SIZE, SIZE, SIZE, 0.75)
        assert cutlass_baseline.time_us / estimate.time_us == pytest.approx(1.86, abs=0.1)

    def test_capped_beyond_75_percent(self):
        kernel = SparseTensorCoreGemm()
        at_75 = kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, 0.75)
        at_95 = kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, 0.95)
        assert at_95.details["exploited_sparsity"] == 0.75
        assert at_95.timing.compute_cycles == pytest.approx(at_75.timing.compute_cycles)

    def test_estimate_from_matrices_uses_b_sparsity(self, make_sparse):
        a = make_sparse((256, 256), 1.0)
        b = make_sparse((256, 256), 0.25)
        estimate = SparseTensorCoreGemm().estimate(a, b)
        assert estimate.details["weight_sparsity"] == pytest.approx(0.75, abs=0.02)


class TestDualSparseGemm:
    def test_exact_and_statistical_paths_agree(self, rng):
        kernel = DualSparseGemm()
        a = random_sparse_matrix((1024, 1024), 0.3, rng)
        b = random_sparse_matrix((1024, 1024), 0.1, rng)
        exact = kernel.estimate(a, b)
        statistical = kernel.estimate_from_sparsity(1024, 1024, 1024, 0.7, 0.9)
        assert exact.time_us == pytest.approx(statistical.time_us, rel=0.1)

    def test_exact_path_matches_reference_stats(self, rng):
        """Not tile-aligned, with one empty 32x16 warp tile of A: the cost
        model must read the reference loop's counts and bytes."""
        a = random_sparse_matrix((70, 45), 0.3, rng)
        a[:32, :16] = 0.0
        b = random_sparse_matrix((45, 50), 0.3, rng)
        kernel = DualSparseGemm()
        details = kernel.estimate(a, b).details
        stats = device_spgemm(a, b, backend="reference").stats
        assert details["ohmma_issued"] == stats.warp.ohmma_issued
        assert details["instruction_speedup"] == stats.instruction_speedup
        output_bytes = 70 * 50 * kernel.element_bytes
        assert (
            details["traffic_bytes"] - output_bytes
            == stats.a_bytes_compressed + stats.b_bytes_compressed
        )

    def test_slower_than_cutlass_when_dense(self, cutlass_baseline):
        estimate = DualSparseGemm().estimate_from_sparsity(SIZE, SIZE, SIZE, 0.0, 0.0)
        assert estimate.time_us > cutlass_baseline.time_us
        assert estimate.time_us < cutlass_baseline.time_us * 1.5

    def test_break_even_around_25_percent_a_sparsity(self, cutlass_baseline):
        kernel = DualSparseGemm()
        at_20 = kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, 0.20, 0.0)
        at_40 = kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, 0.40, 0.0)
        assert at_20.time_us >= cutlass_baseline.time_us * 0.95
        assert at_40.time_us < cutlass_baseline.time_us

    def test_order_of_magnitude_at_extreme_dual_sparsity(self, cutlass_baseline):
        estimate = DualSparseGemm().estimate_from_sparsity(SIZE, SIZE, SIZE, 0.999, 0.99)
        assert cutlass_baseline.time_us / estimate.time_us > 10.0

    def test_beats_sparse_tensor_core_with_dual_sparsity(self):
        dual = DualSparseGemm().estimate_from_sparsity(SIZE, SIZE, SIZE, 0.9, 0.99)
        single = SparseTensorCoreGemm().estimate_from_sparsity(SIZE, SIZE, SIZE, 0.99)
        assert dual.time_us < single.time_us

    def test_speedup_monotone_in_each_sparsity(self):
        kernel = DualSparseGemm()
        times_a = [
            kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, s, 0.5).time_us
            for s in (0.0, 0.25, 0.5, 0.75, 0.9)
        ]
        assert times_a == sorted(times_a, reverse=True)
        times_b = [
            kernel.estimate_from_sparsity(SIZE, SIZE, SIZE, 0.5, s).time_us
            for s in (0.0, 0.5, 0.9, 0.99)
        ]
        assert times_b == sorted(times_b, reverse=True)

    def test_merge_stream_bounds_dense_case(self):
        estimate = DualSparseGemm().estimate_from_sparsity(2048, 2048, 2048, 0.0, 0.0)
        assert estimate.details["bound_stream"] in ("issue", "merge")
        assert estimate.details["merge_cycles"] > 0

    def test_expected_groups_matches_exhaustive(self):
        from scipy.stats import binom

        kernel = DualSparseGemm()
        density = 0.3
        expected = kernel._expected_groups(32, density, 8)
        exhaustive = sum(
            binom.pmf(n, 32, density) * -(-n // 8) for n in range(33)
        )
        assert expected == pytest.approx(exhaustive, rel=1e-6)

    def test_compressed_traffic_reported(self, make_sparse):
        a = make_sparse((512, 512), 0.1)
        b = make_sparse((512, 512), 0.1)
        estimate = DualSparseGemm().estimate(a, b)
        assert estimate.details["traffic_bytes"] < 3 * 512 * 512 * 2
