"""Tests for the pruning schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ShapeError
from repro.formats.hierarchical import TwoLevelBitmapMatrix
from repro.pruning.agp import agp_prune, agp_target_sparsity
from repro.pruning.masks import apply_mask, magnitude_mask, mask_sparsity
from repro.pruning.movement import block_movement_prune
from repro.pruning.structured_24 import prune_2_4
from repro.pruning.vector_wise import vector_wise_prune
from repro.sparsity.statistics import sparsity


class TestMasks:
    def test_magnitude_mask_removes_smallest(self):
        weights = np.array([[0.1, 5.0], [0.2, 4.0]])
        mask = magnitude_mask(weights, 0.5)
        assert mask_sparsity(mask) == pytest.approx(0.5)
        assert mask[0, 1] and mask[1, 1]
        assert not mask[0, 0] and not mask[1, 0]

    def test_magnitude_mask_extremes(self):
        weights = np.ones((4, 4))
        assert magnitude_mask(weights, 0.0).all()
        assert not magnitude_mask(weights, 1.0).any()

    def test_apply_mask(self):
        weights = np.ones((2, 2))
        mask = np.array([[True, False], [False, True]])
        pruned = apply_mask(weights, mask)
        assert pruned[0, 1] == 0 and pruned[0, 0] == 1

    @given(st.floats(0.05, 0.95), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_magnitude_mask_hits_target(self, target, seed):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((40, 40))
        mask = magnitude_mask(weights, target)
        assert mask_sparsity(mask) == pytest.approx(target, abs=0.05)


class TestAgp:
    def test_schedule_boundaries(self):
        assert agp_target_sparsity(0, 0, 10, 0.0, 0.9) == 0.0
        assert agp_target_sparsity(10, 0, 10, 0.0, 0.9) == 0.9
        assert agp_target_sparsity(20, 0, 10, 0.0, 0.9) == 0.9

    def test_schedule_is_monotone(self):
        values = [agp_target_sparsity(t, 0, 10, 0.0, 0.9) for t in range(11)]
        assert values == sorted(values)

    def test_schedule_cubic_midpoint(self):
        # At half the window the cubic schedule has removed 7/8 of the gap.
        assert agp_target_sparsity(5, 0, 10, 0.0, 0.8) == pytest.approx(0.8 * 0.875)

    def test_schedule_invalid_window(self):
        with pytest.raises(ConfigError):
            agp_target_sparsity(1, 5, 5, 0.0, 0.5)

    @pytest.mark.parametrize("target", [0.5, 0.75, 0.9])
    def test_agp_prune_reaches_target(self, rng, target):
        weights = rng.standard_normal((64, 64))
        pruned = agp_prune(weights, target, steps=5)
        assert sparsity(pruned) == pytest.approx(target, abs=0.02)

    def test_agp_prune_with_finetuning_noise(self, rng):
        weights = rng.standard_normal((32, 32))
        pruned = agp_prune(weights, 0.8, steps=4, rng=rng)
        assert sparsity(pruned) == pytest.approx(0.8, abs=0.03)


class TestStructured24:
    def test_exactly_half_pruned_per_group(self, rng):
        weights = rng.standard_normal((8, 16))
        pruned = prune_2_4(weights)
        grouped = pruned.reshape(8, 4, 4)
        assert np.all((grouped != 0).sum(axis=-1) == 2)

    def test_keeps_largest_magnitudes(self):
        weights = np.array([[1.0, -5.0, 0.1, 3.0]])
        pruned = prune_2_4(weights)
        assert pruned[0, 1] == -5.0 and pruned[0, 3] == 3.0
        assert pruned[0, 0] == 0.0 and pruned[0, 2] == 0.0

    def test_rejects_non_multiple_of_four(self):
        with pytest.raises(ShapeError):
            prune_2_4(np.zeros((4, 6)))

    def test_prune_along_other_axis(self, rng):
        weights = rng.standard_normal((8, 6))
        pruned = prune_2_4(weights, axis=0)
        assert sparsity(pruned) == pytest.approx(0.5)


class TestVectorWise:
    @pytest.mark.parametrize("target", [0.25, 0.5, 0.75])
    def test_exact_sparsity_per_vector(self, rng, target):
        weights = rng.standard_normal((16, 64))
        pruned = vector_wise_prune(weights, target, vector_length=32)
        grouped = pruned.reshape(16, 2, 32)
        keep = 32 - int(round(32 * target))
        assert np.all((grouped != 0).sum(axis=-1) == keep)

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            vector_wise_prune(np.zeros((4, 30)), 0.5, vector_length=32)

    def test_rejects_non_2d_weights(self):
        with pytest.raises(ShapeError):
            vector_wise_prune(np.zeros(64), 0.5, vector_length=32)

    def test_rejects_bad_vector_length(self):
        with pytest.raises(ConfigError):
            vector_wise_prune(np.zeros((4, 32)), 0.5, vector_length=0)


class TestBlockMovement:
    def test_reaches_target_sparsity(self, rng):
        weights = rng.uniform(0.5, 1.5, size=(256, 256))
        pruned = block_movement_prune(weights, 0.9, block=32)
        assert sparsity(pruned) == pytest.approx(0.9, abs=0.02)

    def test_produces_empty_warp_tiles(self, rng):
        """The clustered pattern the two-level bitmap exploits (Section VI-D)."""
        weights = rng.uniform(0.5, 1.5, size=(256, 256))
        pruned = block_movement_prune(weights, 0.9, block=32)
        # The warp bit the engines skip on: False marks an empty warp tile.
        warp_bitmap = TwoLevelBitmapMatrix.from_dense(
            pruned, tile_shape=(32, 32)
        ).warp_bitmap
        assert (~warp_bitmap).mean() > 0.7

    def test_uniform_pruning_does_not_empty_tiles(self, rng):
        """Contrast: unstructured pruning at the same ratio leaves no empty tile."""
        weights = rng.uniform(0.5, 1.5, size=(256, 256))
        mask = rng.random(weights.shape) >= 0.9
        unstructured = np.where(mask, weights, 0.0)
        warp_bitmap = TwoLevelBitmapMatrix.from_dense(
            unstructured, tile_shape=(32, 32)
        ).warp_bitmap
        assert (~warp_bitmap).mean() < 0.05

    def test_removes_lowest_norm_blocks_first(self, rng):
        weights = rng.uniform(0.5, 1.5, size=(64, 64))
        weights[:32, :32] *= 0.01  # clearly the least important block
        pruned = block_movement_prune(weights, 0.25, block=32)
        assert np.all(pruned[:32, :32] == 0)
        assert np.count_nonzero(pruned[32:, 32:]) > 0

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            block_movement_prune(np.zeros(16), 0.5)
