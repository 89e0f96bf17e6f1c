"""Tests for repro.sparsity (generators, distributions, statistics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sparsity.distributions import (
    blocked_mask,
    clustered_mask,
    row_banded_mask,
    uniform_mask,
)
from repro.sparsity.generators import random_sparse_matrix
from repro.sparsity.statistics import density, sparsity


class TestGenerators:
    @pytest.mark.parametrize("target", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_density_close_to_target(self, rng, target):
        matrix = random_sparse_matrix((200, 200), target, rng)
        assert density(matrix) == pytest.approx(target, abs=0.03)

    @pytest.mark.parametrize("pattern", ["uniform", "row_banded", "blocked", "clustered"])
    def test_all_patterns_produce_requested_shape(self, rng, pattern):
        # Use a grid large relative to the block size so the blocked
        # pattern's tile-level randomness cannot degenerate to all-on/off.
        matrix = random_sparse_matrix((256, 256), 0.3, rng, pattern=pattern)
        assert matrix.shape == (256, 256)
        assert 0.0 < density(matrix) < 1.0

    def test_unknown_pattern_rejected(self, rng):
        with pytest.raises(ConfigError):
            random_sparse_matrix((8, 8), 0.5, rng, pattern="spiral")

    def test_values_never_collide_with_zero(self, rng):
        matrix = random_sparse_matrix((64, 64), 0.5, rng)
        nonzeros = matrix[matrix != 0]
        assert np.all(nonzeros >= 0.5)

    @given(st.floats(0.05, 0.95), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_uniform_density_property(self, target, seed):
        rng = np.random.default_rng(seed)
        matrix = random_sparse_matrix((128, 128), target, rng)
        assert abs(density(matrix) - target) < 0.08


class TestDistributions:
    def test_uniform_mask_density(self, rng):
        mask = uniform_mask((256, 256), 0.25, rng)
        assert mask.mean() == pytest.approx(0.25, abs=0.02)

    def test_blocked_mask_has_empty_tiles(self, rng):
        mask = blocked_mask((128, 128), 0.5, rng, block=32)
        tile_density = mask.reshape(4, 32, 4, 32).mean(axis=(1, 3))
        assert np.any(tile_density == 0.0)
        assert np.any(tile_density == 1.0)

    def test_row_banded_mask_is_imbalanced(self, rng):
        def row_nnz_variation(mask):
            counts = mask.sum(axis=1)
            return counts.std() / counts.mean()

        mask = row_banded_mask((128, 128), 0.4, rng, imbalance=0.8)
        assert row_nnz_variation(mask) > row_nnz_variation(
            uniform_mask((128, 128), 0.4, rng)
        )

    def test_clustered_mask_density(self, rng):
        mask = clustered_mask((100, 100), 0.3, rng)
        assert mask.mean() == pytest.approx(0.3, abs=0.06)

    def test_clustered_mask_terminates_at_high_density(self, rng):
        mask = clustered_mask((50, 50), 0.95, rng)
        assert mask.mean() > 0.7


class TestStatistics:
    def test_density_and_sparsity_sum_to_one(self, make_sparse):
        matrix = make_sparse((40, 40), 0.3)
        assert density(matrix) + sparsity(matrix) == pytest.approx(1.0)

    def test_empty_matrix_density(self):
        assert density(np.zeros((0, 4))) == 0.0
