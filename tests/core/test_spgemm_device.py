"""Tests for the device-level SpGEMM and the closed-form statistics function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operands import device_stats_from_operands
from repro.core.spgemm_device import device_spgemm
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ShapeError
from repro.sparsity.generators import random_sparse_matrix


class TestDeviceSpgemmCorrectness:
    def test_matches_numpy_on_sparse_inputs(self, make_sparse):
        a = make_sparse((96, 64), 0.3)
        b = make_sparse((64, 96), 0.2)
        result = device_spgemm(a, b)
        assert np.allclose(result.output, a @ b)

    def test_matches_numpy_on_dense_inputs(self, rng):
        a = rng.uniform(size=(64, 32))
        b = rng.uniform(size=(32, 64))
        result = device_spgemm(a, b)
        assert np.allclose(result.output, a @ b)

    def test_non_tile_multiple_shapes(self, make_sparse):
        a = make_sparse((70, 45), 0.3)
        b = make_sparse((45, 50), 0.3)
        result = device_spgemm(a, b)
        assert result.output.shape == (70, 50)
        assert np.allclose(result.output, a @ b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            device_spgemm(np.zeros((32, 16)), np.zeros((32, 16)))

    def test_zero_matrices(self):
        result = device_spgemm(np.zeros((64, 32)), np.zeros((32, 64)))
        assert np.allclose(result.output, 0)
        assert result.stats.warp.ohmma_issued == 0
        assert result.stats.tile_skip_fraction == 1.0

    @given(st.integers(0, 3000), st.floats(0.05, 0.8), st.floats(0.05, 0.8))
    @settings(max_examples=15, deadline=None)
    def test_numerical_equivalence_property(self, seed, a_density, b_density):
        rng = np.random.default_rng(seed)
        a = random_sparse_matrix((64, 48), a_density, rng)
        b = random_sparse_matrix((48, 64), b_density, rng)
        assert np.allclose(device_spgemm(a, b).output, a @ b)


class TestDeviceSpgemmStats:
    def test_empty_tiles_are_skipped(self):
        a = np.zeros((64, 32))
        a[:32, :16] = 1.0
        b = np.ones((32, 64))
        result = device_spgemm(a, b)
        assert result.stats.warp_tile_pairs_skipped > 0
        assert result.stats.tile_skip_fraction > 0

    def test_compressed_footprint_smaller_when_sparse(self, make_sparse):
        a = make_sparse((64, 64), 0.1)
        b = make_sparse((64, 64), 0.1)
        stats = device_spgemm(a, b).stats
        assert stats.a_bytes_compressed < stats.a_bytes_dense
        assert stats.b_bytes_compressed < stats.b_bytes_dense

    def test_instruction_speedup_grows_with_sparsity(self, rng):
        sparse_speedups = []
        for density in (0.8, 0.4, 0.1):
            a = random_sparse_matrix((96, 64), density, rng)
            b = random_sparse_matrix((64, 96), density, rng)
            sparse_speedups.append(device_spgemm(a, b).stats.instruction_speedup)
        assert sparse_speedups == sorted(sparse_speedups)


def reference_stats(a, b, config=None):
    return device_spgemm(a, b, config=config, backend="reference").stats


class TestInstructionCounterMatchesFunctionalModel:
    """The statistics function must equal the reference loop's DeviceStats,
    every field, on any shape."""

    @pytest.mark.parametrize(
        "shape_a,n_dim,density_a,density_b,empty_a_tile",
        [
            pytest.param((64, 32), 64, 0.1, 0.1, False, id="0.1-0.1"),
            pytest.param((64, 32), 64, 0.3, 0.6, False, id="0.3-0.6"),
            pytest.param((64, 32), 64, 1.0, 1.0, False, id="1.0-1.0"),
            # Clipped edge tiles on every axis, and one empty 32x16 warp
            # tile of A, which stores no element bitmap.
            pytest.param((70, 45), 50, 0.3, 0.3, True, id="70x45-empty-tile"),
        ],
    )
    def test_counts_match(
        self, rng, shape_a, n_dim, density_a, density_b, empty_a_tile
    ):
        a = random_sparse_matrix(shape_a, density_a, rng)
        if empty_a_tile:
            a[:32, :16] = 0.0
        b = random_sparse_matrix((shape_a[1], n_dim), density_b, rng)
        assert device_stats_from_operands(a, b) == reference_stats(a, b)

    def test_counts_match_with_blocked_pattern(self, rng):
        a = random_sparse_matrix((128, 64), 0.3, rng, pattern="blocked")
        b = random_sparse_matrix((64, 128), 0.5, rng, pattern="blocked")
        counted = device_stats_from_operands(a, b)
        assert counted.warp_tile_pairs_skipped > 0
        assert counted == reference_stats(a, b)

    def test_counts_match_custom_config(self, rng):
        config = WarpTileConfig(tm=16, tn=16, tk=8)
        a = random_sparse_matrix((32, 16), 0.4, rng)
        b = random_sparse_matrix((16, 32), 0.4, rng)
        counted = device_stats_from_operands(a, b, config)
        assert counted == reference_stats(a, b, config)

    def test_dense_counts_formula(self):
        a = np.ones((64, 32))
        b = np.ones((32, 64))
        counted = device_stats_from_operands(a, b).warp
        # 2x2 output tiles x 32 k-steps x 8 OHMMA per set, nothing skipped.
        assert counted.ohmma_dense == 2 * 2 * 32 * 8
        assert counted.ohmma_issued == counted.ohmma_dense
        assert counted.instruction_speedup == 1.0

    def test_macs_equal_expected_products(self, make_sparse):
        a = make_sparse((64, 32), 0.25)
        b = make_sparse((32, 64), 0.25)
        counted = device_stats_from_operands(a, b)
        expected = sum(
            int(np.count_nonzero(a[:, k])) * int(np.count_nonzero(b[k, :]))
            for k in range(32)
        )
        assert counted.warp.multiply_macs == expected

    def test_counter_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            device_stats_from_operands(np.zeros((8, 8)), np.zeros((4, 8)))

    @given(st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_counts_match_property(self, seed):
        rng = np.random.default_rng(seed)
        a = random_sparse_matrix((64, 32), float(rng.uniform(0.05, 0.9)), rng)
        b = random_sparse_matrix((32, 64), float(rng.uniform(0.05, 0.9)), rng)
        assert device_stats_from_operands(a, b) == reference_stats(a, b)
