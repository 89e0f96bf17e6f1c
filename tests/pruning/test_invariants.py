"""Registry-wide pruning invariants, locked down with Hypothesis.

Every named method of :data:`repro.pruning.methods.PRUNING_METHODS` is a
deterministic, idempotent, shape-preserving transform — the properties
the model-zoo conformance grid relies on when it threads a method
through the synthetic weight streams and expects compiled sessions and
the functional oracle to stay bit-identical.

Weights are drawn from ``uniform(0.5, 1.5)`` — the synthetic layer's
dense draw — so magnitudes are continuous, distinct and strictly
positive, which is exactly the regime where the quantile-threshold
methods (magnitude, AGP) are idempotent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pruning.masks import apply_mask, magnitude_mask
from repro.pruning.methods import PRUNING_METHODS, get_pruning_method
from repro.pruning.structured_24 import prune_2_4
from repro.pruning.vector_wise import vector_wise_prune

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)

#: Shared weight-matrix strategy: seed + ragged-friendly 2-D shape.
WEIGHTS = st.tuples(
    st.integers(0, 2**31 - 1),
    st.integers(1, 12),
    st.integers(1, 40),
)
SPARSITY = st.floats(0.1, 0.9)
AXES = st.sampled_from([0, 1, -1])


def draw_weights(seed: int, rows: int, cols: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.5, 1.5, size=(rows, cols))


@pytest.mark.parametrize("name", sorted(PRUNING_METHODS))
class TestEveryMethod:
    @SETTINGS
    @given(WEIGHTS, SPARSITY, AXES)
    def test_deterministic_and_input_preserving(self, name, params, s, axis):
        weights = draw_weights(*params)
        original = weights.copy()
        method = PRUNING_METHODS[name]
        first = method.apply(weights, s, axis=axis)
        second = method.apply(weights, s, axis=axis)
        assert np.array_equal(first, second)
        assert np.array_equal(weights, original)  # input never mutated

    @SETTINGS
    @given(WEIGHTS, SPARSITY, AXES)
    def test_idempotent_at_fixed_target(self, name, params, s, axis):
        weights = draw_weights(*params)
        method = PRUNING_METHODS[name]
        once = method.apply(weights, s, axis=axis)
        twice = method.apply(once, s, axis=axis)
        assert np.array_equal(once, twice)

    @SETTINGS
    @given(WEIGHTS, SPARSITY, AXES)
    def test_shape_and_dtype_preserved(self, name, params, s, axis):
        weights = draw_weights(*params)
        pruned = PRUNING_METHODS[name].apply(weights, s, axis=axis)
        assert pruned.shape == weights.shape
        assert pruned.dtype == np.float64
        # Pruning only zeroes: every surviving value is a copied input.
        survivors = pruned != 0
        assert np.array_equal(pruned[survivors], weights[survivors])


class TestStructured24:
    @SETTINGS
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 41))
    def test_keeps_exactly_two_of_every_full_group(self, seed, rows, cols):
        weights = draw_weights(seed, rows, cols)
        pruned = prune_2_4(weights, axis=1, pad=True)
        full = (cols // 4) * 4
        grouped = (pruned[:, :full] != 0).reshape(rows, -1, 4)
        assert (grouped.sum(axis=-1) == 2).all()
        # The ragged tail keeps its top min(2, tail) dense elements.
        tail = pruned[:, full:]
        assert ((tail != 0).sum(axis=-1) == min(2, cols - full)).all()

    @SETTINGS
    @given(st.integers(0, 2**31 - 1), SPARSITY)
    def test_fixed_sparsity_ignores_requested_target(self, seed, s):
        weights = draw_weights(seed, 8, 16)
        method = get_pruning_method("2:4")
        assert method.fixed_sparsity == 0.5
        pruned = method.apply(weights, s, axis=1)
        assert (pruned == 0).mean() == 0.5


class TestVectorWise:
    @SETTINGS
    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 0.9))
    def test_constant_survivor_budget_per_full_vector(self, seed, s):
        weights = draw_weights(seed, 4, 96)
        pruned = vector_wise_prune(weights, s, vector_length=32, axis=1)
        keep = 32 - int(round(32 * s))
        vectors = (pruned != 0).reshape(4, 3, 32)
        assert (vectors.sum(axis=-1) == keep).all()


class TestMaskContracts:
    @SETTINGS
    @given(st.integers(0, 2**31 - 1), SPARSITY)
    def test_magnitude_mask_is_boolean_and_shape_preserving(self, seed, s):
        weights = draw_weights(seed, 6, 20)
        mask = magnitude_mask(weights, s)
        assert mask.dtype == np.bool_
        assert mask.shape == weights.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_apply_mask_preserves_dtype(self, dtype):
        weights = np.ones((3, 5), dtype=dtype)
        mask = magnitude_mask(weights, 0.0)
        assert apply_mask(weights, mask).dtype == dtype


class TestRegistry:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            get_pruning_method("lottery-ticket")

    def test_every_method_reachable_by_name(self):
        for name, method in PRUNING_METHODS.items():
            assert get_pruning_method(name) is method
            assert method.name == name and method.description
