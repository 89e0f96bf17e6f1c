"""Tests for condensing, outer-product primitives and the merge step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condense import condense, quantized_steps
from repro.core.merge import MergeStats, merge_partial
from repro.core.outer_product import (
    PartialMatrix,
    multiply_bitmap,
    multiply_value,
    outer_product_step,
)
from repro.errors import ShapeError


def _partial(dense):
    """Bitmap-encode a dense partial matrix (values in row-major order)."""
    dense = np.asarray(dense)
    return PartialMatrix(bitmap=dense != 0, values=dense[dense != 0])


class TestCondense:
    def test_condense_pushes_nonzeros_together(self):
        vector = np.array([0.0, 3.0, 0.0, 4.0])
        condensed = condense(vector)
        assert list(condensed.values) == [3.0, 4.0]
        assert list(condensed.bitmap) == [False, True, False, True]
        assert condensed.nnz == 2
        assert not condensed.is_empty

    def test_condense_empty_vector(self):
        condensed = condense(np.zeros(8))
        assert condensed.is_empty
        assert condensed.nnz == 0

    def test_condense_rejects_2d(self):
        with pytest.raises(ShapeError):
            condense(np.zeros((2, 2)))

    def test_padded_rounds_to_multiple(self):
        condensed = condense(np.array([1.0, 0.0, 2.0, 3.0, 0.0]))
        padded = condensed.padded(8)
        assert padded.size == 8
        assert list(padded[:3]) == [1.0, 2.0, 3.0]
        assert np.all(padded[3:] == 0)

    def test_padded_empty(self):
        assert condense(np.zeros(4)).padded(8).size == 0

    @pytest.mark.parametrize(
        "nnz,granularity,expected",
        [(0, 8, 0), (1, 8, 1), (8, 8, 1), (9, 8, 2), (20, 8, 3), (32, 8, 4), (17, 16, 2)],
    )
    def test_quantized_steps(self, nnz, granularity, expected):
        assert quantized_steps(nnz, granularity) == expected

    def test_quantized_steps_rejects_negative(self):
        with pytest.raises(ShapeError):
            quantized_steps(-1, 8)

    @pytest.mark.parametrize(
        "nnz,operand_elements",
        [(0, 0), (1, 8), (8, 8), (9, 16), (24, 24), (25, 32)],
    )
    def test_padded_a_column_fills_whole_ohmma_rows(self, nnz, operand_elements):
        """A 32-long A column with ``nnz`` non-zeros feeds ceil(nnz/8) 8-row groups."""
        column = np.zeros(32)
        column[np.linspace(0, 31, nnz).astype(int)] = 1.0
        padded = condense(column).padded(8)
        assert padded.size == operand_elements == 8 * quantized_steps(nnz, 8)
        assert np.count_nonzero(padded) == nnz

    def test_padding_adds_less_than_one_group(self):
        for nnz in range(33):
            column = np.concatenate([np.ones(nnz), np.zeros(32 - nnz)])
            size = condense(column).padded(8).size
            assert nnz <= size <= 32
            assert size - nnz < 8


class TestOuterProduct:
    def test_multiply_value_is_cross_product(self):
        a = condense(np.array([2.0, 0.0, 3.0]))
        b = condense(np.array([0.0, 5.0]))
        block = multiply_value(a, b)
        assert block.shape == (2, 1)
        assert block[0, 0] == 10.0 and block[1, 0] == 15.0

    def test_multiply_value_is_exact_float64_on_integers(self):
        a = condense(np.array([3, 0, 7], dtype=np.int32))
        b = condense(np.array([0, 11, 13], dtype=np.int32))
        block = multiply_value(a, b)
        assert block.dtype == np.float64
        assert block.tolist() == [[33.0, 39.0], [77.0, 91.0]]

    def test_multiply_value_with_empty_operand(self):
        a = condense(np.zeros(3))
        b = condense(np.array([1.0]))
        assert multiply_value(a, b).size == 0

    def test_multiply_bitmap_matches_nonzero_structure(self):
        a = condense(np.array([1.0, 0.0, 2.0]))
        b = condense(np.array([0.0, 3.0]))
        bitmap = multiply_bitmap(a, b)
        assert bitmap.shape == (3, 2)
        assert bitmap[0, 1] and bitmap[2, 1]
        assert not bitmap[1, 1] and not bitmap[0, 0]

    def test_outer_product_step_reconstructs_dense_outer(self):
        a_vec = np.array([1.0, 0.0, 2.0, 0.0])
        b_vec = np.array([0.0, 3.0, 4.0])
        partial = outer_product_step(condense(a_vec), condense(b_vec))
        assert np.allclose(partial.to_dense(), np.outer(a_vec, b_vec))
        assert partial.nnz == 4

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_outer_step_equals_numpy_outer(self, seed):
        rng = np.random.default_rng(seed)
        a_vec = np.where(rng.random(16) < 0.4, rng.uniform(1, 2, 16), 0.0)
        b_vec = np.where(rng.random(12) < 0.4, rng.uniform(1, 2, 12), 0.0)
        partial = outer_product_step(condense(a_vec), condense(b_vec))
        assert np.allclose(partial.to_dense(), np.outer(a_vec, b_vec))


class TestMerge:
    def test_merge_accumulates_in_place(self):
        accumulator = np.ones((2, 2))
        partial = _partial(np.array([[0.0, 2.0], [0.0, 0.0]]))
        stats = merge_partial(accumulator, partial)
        assert accumulator[0, 1] == 3.0
        assert accumulator[0, 0] == 1.0
        assert stats.gathers == stats.scatters == stats.accumulations == 1

    def test_merge_shape_mismatch(self):
        with pytest.raises(ShapeError):
            merge_partial(np.zeros((2, 2)), _partial(np.zeros((3, 3))))

    def test_merge_empty_partial_is_free(self):
        stats = merge_partial(np.zeros((4, 4)), _partial(np.zeros((4, 4))))
        assert stats.gathers == 0

    def test_merge_collects_positions_when_asked(self):
        partial = _partial(np.array([[1.0, 0.0], [0.0, 1.0]]))
        stats = merge_partial(np.zeros((2, 2)), partial, collect_positions=True)
        assert len(stats.access_positions) == 1
        assert list(stats.access_positions[0]) == [0, 3]

    def test_merge_sequence_equals_sum_of_partials(self, rng):
        partials = []
        expected = np.zeros((6, 5))
        for _ in range(4):
            dense = np.where(rng.random((6, 5)) < 0.3, rng.uniform(1, 2, (6, 5)), 0.0)
            expected += dense
            partials.append(_partial(dense))
        accumulated = np.zeros((6, 5))
        stats = MergeStats()
        for partial in partials:
            stats.merge_with(merge_partial(accumulated, partial))
        assert np.allclose(accumulated, expected)
        assert stats.accumulations == sum(p.nnz for p in partials)

    def test_merge_stats_merge_with(self):
        a = MergeStats(gathers=1, accumulations=2, scatters=3)
        b = MergeStats(gathers=10, accumulations=20, scatters=30)
        a.merge_with(b)
        assert (a.gathers, a.accumulations, a.scatters) == (11, 22, 33)
