"""Tests for the warp-level SpGEMM (Figure 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spgemm_warp import WarpTileConfig, warp_spgemm, warp_speedup_levels
from repro.errors import ShapeError
from repro.sparsity.generators import random_sparse_matrix


class TestWarpTileConfig:
    def test_default_geometry_matches_paper(self):
        config = WarpTileConfig()
        assert (config.tm, config.tn, config.tk) == (32, 32, 16)
        assert (config.ohmma_m, config.ohmma_n) == (8, 16)
        assert config.ohmma_per_set == 8

    @pytest.mark.parametrize(
        "nnz_a,nnz_b,expected",
        [(32, 32, 8), (20, 11, 3), (8, 16, 1), (1, 1, 1), (9, 17, 4), (0, 5, 0)],
    )
    def test_ohmma_for_counts(self, nnz_a, nnz_b, expected):
        assert WarpTileConfig().ohmma_for(nnz_a, nnz_b) == expected

    def test_figure5_example(self):
        """20 non-zeros in the A column and 11 in the B row: 3 of 8 OHMMAs."""
        config = WarpTileConfig()
        assert config.ohmma_for(20, 11) == 3
        assert config.ohmma_per_set - config.ohmma_for(20, 11) == 5

    def test_speedup_levels(self):
        levels = warp_speedup_levels()
        assert levels["a"] == [0.0, 0.25, 0.5, 0.75]
        assert levels["b"] == [0.0, 0.5]


class TestWarpSpgemmCorrectness:
    def test_dense_tile_matches_numpy(self, rng):
        a_tile = rng.uniform(size=(32, 16))
        b_tile = rng.uniform(size=(16, 32))
        output, stats = warp_spgemm(a_tile, b_tile)
        assert np.allclose(output, a_tile @ b_tile)
        assert stats.ohmma_issued == stats.ohmma_dense == 16 * 8
        assert stats.ohmma_skipped == 0

    def test_sparse_tile_matches_numpy(self, make_sparse):
        a_tile = make_sparse((32, 16), 0.3)
        b_tile = make_sparse((16, 32), 0.4)
        output, stats = warp_spgemm(a_tile, b_tile)
        assert np.allclose(output, a_tile @ b_tile)
        assert stats.ohmma_issued < stats.ohmma_dense

    def test_accumulator_is_added(self, make_sparse):
        a_tile = make_sparse((32, 16), 0.3)
        b_tile = make_sparse((16, 32), 0.3)
        accumulator = np.ones((32, 32))
        output, _ = warp_spgemm(a_tile, b_tile, accumulator=accumulator)
        assert np.allclose(output, a_tile @ b_tile + 1.0)
        assert output is accumulator

    def test_partial_tile_shapes_supported(self, make_sparse):
        a_tile = make_sparse((20, 10), 0.5)
        b_tile = make_sparse((10, 24), 0.5)
        output, _ = warp_spgemm(a_tile, b_tile)
        assert output.shape == (20, 24)
        assert np.allclose(output, a_tile @ b_tile)

    def test_zero_tiles_skip_everything(self):
        output, stats = warp_spgemm(np.zeros((32, 16)), np.zeros((16, 32)))
        assert np.allclose(output, 0)
        assert stats.ohmma_issued == 0
        assert stats.sets_skipped == 16
        assert stats.bohmma_issued == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            warp_spgemm(np.zeros((32, 16)), np.zeros((8, 32)))

    def test_oversized_tile_rejected(self):
        with pytest.raises(ShapeError):
            warp_spgemm(np.zeros((64, 16)), np.zeros((16, 32)))

    def test_wrong_accumulator_shape_rejected(self):
        with pytest.raises(ShapeError):
            warp_spgemm(np.zeros((32, 16)), np.zeros((16, 32)), accumulator=np.zeros((8, 8)))

    @given(st.integers(0, 5000), st.floats(0.05, 0.9), st.floats(0.05, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_numerical_equivalence_property(self, seed, a_density, b_density):
        rng = np.random.default_rng(seed)
        a_tile = random_sparse_matrix((32, 16), a_density, rng)
        b_tile = random_sparse_matrix((16, 32), b_density, rng)
        output, _ = warp_spgemm(a_tile, b_tile)
        assert np.allclose(output, a_tile @ b_tile)


class TestWarpSpgemmStats:
    def test_instruction_speedup_definition(self, make_sparse):
        a_tile = make_sparse((32, 16), 0.25)
        b_tile = make_sparse((16, 32), 0.25)
        _, stats = warp_spgemm(a_tile, b_tile)
        assert stats.instruction_speedup == pytest.approx(
            stats.ohmma_dense / stats.ohmma_issued
        )

    def test_popc_issued_per_set(self, make_sparse):
        a_tile = make_sparse((32, 16), 0.5)
        b_tile = make_sparse((16, 32), 0.5)
        _, stats = warp_spgemm(a_tile, b_tile)
        assert stats.popc_issued == 2 * 16

    def test_macs_equal_merge_accesses(self, make_sparse):
        a_tile = make_sparse((32, 16), 0.4)
        b_tile = make_sparse((16, 32), 0.4)
        _, stats = warp_spgemm(a_tile, b_tile)
        assert stats.multiply_macs == stats.merge.accumulations

    def test_macs_equal_nonzero_products(self, make_sparse):
        a_tile = make_sparse((32, 16), 0.4)
        b_tile = make_sparse((16, 32), 0.4)
        _, stats = warp_spgemm(a_tile, b_tile)
        expected = sum(
            int(np.count_nonzero(a_tile[:, k])) * int(np.count_nonzero(b_tile[k, :]))
            for k in range(16)
        )
        assert stats.multiply_macs == expected

    def test_quantized_speedup_levels_on_uniform_columns(self):
        """A tile whose columns all have 8 non-zeros uses exactly 1 of 4 A-groups."""
        a_tile = np.zeros((32, 16))
        a_tile[:8, :] = 1.0
        b_tile = np.ones((16, 32))
        _, stats = warp_spgemm(a_tile, b_tile)
        assert stats.ohmma_issued == 16 * 1 * 2
        assert stats.instruction_speedup == pytest.approx(4.0)

    def test_speedup_of_an_all_zero_operand_is_the_dense_count(self, make_sparse):
        """Nothing issued: the ratio falls back to the dense OHMMA count."""
        _, stats = warp_spgemm(np.zeros((32, 16)), make_sparse((16, 32), 0.5))
        assert stats.ohmma_issued == 0
        assert stats.ohmma_dense == 16 * 8
        assert stats.instruction_speedup == 16 * 8

    def test_speedup_of_an_empty_tile_is_one(self):
        _, stats = warp_spgemm(np.zeros((32, 0)), np.zeros((0, 32)))
        assert stats.ohmma_dense == stats.ohmma_issued == 0
        assert stats.instruction_speedup == 1.0

    def test_stats_merge_with(self, make_sparse):
        a_tile = make_sparse((32, 16), 0.4)
        b_tile = make_sparse((16, 32), 0.4)
        _, stats1 = warp_spgemm(a_tile, b_tile)
        _, stats2 = warp_spgemm(a_tile, b_tile)
        total = stats1
        issued_before = total.ohmma_issued
        total.merge_with(stats2)
        assert total.ohmma_issued == issued_before * 2
        assert total.sets_total == 32
