"""Encoded-operand fast path vs dense-input parity, across all backends.

The contract of :mod:`repro.core.operands`: passing a pre-encoded
operand (:class:`EncodedOperand`, :class:`TwoLevelBitmapMatrix` or
:class:`SparseMatrix`) to ``device_spgemm`` changes how much per-call
work is skipped, never the result.  Hypothesis drives randomized
(shape, sparsity) draws through every backend and asserts the numeric
output is *bit-identical* and every ``DeviceStats`` / ``WarpStats``
field equal between the dense-input call and each encoded-input
variant — including warmed condensed K-panels, a warmed operand on the
blocked engine's warp-tile path, cache reuse across repeated calls,
mismatched encoding geometry (re-encoded transparently) and non-finite
values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import SparseMatrix
from repro.core.engine_blocked import (
    DEFAULT_PANEL_TILES,
    TILE_PATH_MAX_SHARE,
    blocked_device_spgemm,
    tile_share,
)
from repro.core.operands import EncodedOperand, as_gemm_operand, segment_nnz
from repro.core.spgemm_device import BACKENDS, device_spgemm
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ConfigError
from repro.formats.hierarchical import TwoLevelBitmapMatrix
from repro.sparsity.generators import random_sparse_matrix

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

dims = st.sampled_from([1, 2, 7, 16, 31, 33, 48, 70])
densities = st.sampled_from([0.0, 0.05, 0.3, 0.8])


@st.composite
def operand_pairs(draw):
    m, k, n = draw(dims), draw(dims), draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a = random_sparse_matrix((m, k), draw(densities), rng)
    b = random_sparse_matrix((k, n), draw(densities), rng)
    return a, b


def encodings_of(a, b, config):
    """All accepted pre-encoded forms of the (a, b) operand pair."""
    yield EncodedOperand.for_a(a), EncodedOperand.for_b(b)
    yield (
        TwoLevelBitmapMatrix.from_dense(a, (config.tm, config.tk), order="col"),
        TwoLevelBitmapMatrix.from_dense(b, (config.tk, config.tn), order="row"),
    )
    yield (
        SparseMatrix.from_dense(a, order="col"),
        SparseMatrix.from_dense(b, order="row"),
    )


class TestEncodedParity:
    @SETTINGS
    @given(operand_pairs(), st.sampled_from(BACKENDS))
    def test_encoded_inputs_bit_identical_to_dense(self, operands, backend):
        a, b = operands
        config = WarpTileConfig()
        dense = device_spgemm(a, b, backend=backend)
        for a_enc, b_enc in encodings_of(a, b, config):
            encoded = device_spgemm(a_enc, b_enc, backend=backend)
            assert np.array_equal(dense.output, encoded.output)
            assert dense.stats == encoded.stats
            # Mixed: one side encoded, the other dense.
            mixed = device_spgemm(a_enc, b, backend=backend)
            assert np.array_equal(dense.output, mixed.output)
            assert dense.stats == mixed.stats

    @SETTINGS
    @given(operand_pairs())
    def test_warmed_panels_bit_identical_to_plain_blocked(self, operands):
        a, b = operands
        config = WarpTileConfig()
        plain = device_spgemm(a, b, backend="blocked")
        a_op = EncodedOperand.for_a(a).warm(
            config, panel=config.tk * DEFAULT_PANEL_TILES
        )
        b_op = EncodedOperand.for_b(b).warm(
            config, panel=config.tk * DEFAULT_PANEL_TILES
        )
        warmed = device_spgemm(a_op, b_op, backend="blocked")
        assert np.array_equal(plain.output, warmed.output)
        assert plain.stats == warmed.stats
        # Small panels exercise the candidate-subset gather path.
        small = blocked_device_spgemm(a_op, b_op, panel_tiles=1)
        reference = blocked_device_spgemm(a, b, panel_tiles=1)
        assert np.array_equal(reference.output, small.output)
        assert reference.stats == small.stats

    @SETTINGS
    @given(operand_pairs())
    def test_repeated_calls_reuse_caches(self, operands):
        a, b = operands
        a_op, b_op = EncodedOperand.for_a(a), EncodedOperand.for_b(b)
        first = device_spgemm(a_op, b_op, backend="auto")
        assert len(a_op._summaries) == 1
        again = device_spgemm(a_op, b_op, backend="auto")
        assert len(a_op._summaries) == 1  # cache hit, not a rebuild
        assert np.array_equal(first.output, again.output)
        assert first.stats == again.stats


class TestWarpTilePath:
    def test_warmed_persistent_a_bytes_identical_to_plain_arrays(self):
        # A session's GEMM layer: block-pruned (K, N) weights used
        # transposed on side A, float32 activations transposed on side B.
        rng = np.random.default_rng(19)
        blocks = rng.random((1024 // 32, 512 // 32)) < 0.08
        weights = np.kron(blocks, np.ones((32, 32))) * rng.uniform(
            0.5, 1.5, (1024, 512)
        )
        activations = random_sparse_matrix((96, 1024), 0.9, rng)
        config = WarpTileConfig()
        a_op = EncodedOperand.for_a(weights.T).warm(config)
        assert (
            tile_share(a_op.summary(config), a_op.k_activity)
            < TILE_PATH_MAX_SHARE
        )
        plain = device_spgemm(weights.T, activations.T, backend="blocked")
        for _ in range(2):  # first and repeated use of the warmed operand
            encoded = device_spgemm(a_op, activations.T, backend="blocked")
            assert encoded.output.tobytes() == plain.output.tobytes()
            assert encoded.stats == plain.stats
        assert a_op._panels == {}  # the tile path builds no K-panel cache

    def test_path_choice_reuses_the_statistics_summary(self):
        # The plan comes from the summary the call's statistics built,
        # whatever the element width: no second summary of A.
        rng = np.random.default_rng(21)
        blocks = rng.random((8, 16)) < 0.1
        a = np.kron(blocks, np.ones((32, 32)))
        a_op = EncodedOperand.for_a(a)
        device_spgemm(a_op, np.ones((512, 8)), element_bytes=4, backend="blocked")
        assert len(a_op._summaries) == 1


def padded_segment_sums(values, tile, axis):
    """Zero-pad to a multiple of ``tile`` along ``axis``, then sum blocks."""
    values = np.asarray(values)
    length = values.shape[axis]
    pad = -length % tile
    widths = [(0, 0), (0, 0)]
    widths[axis] = (0, pad)
    padded = np.pad(values, widths)
    n_seg = (length + pad) // tile
    if axis == 0:
        blocks = padded.reshape(n_seg, tile, padded.shape[1])
    else:
        blocks = padded.reshape(padded.shape[0], n_seg, tile)
    return blocks.sum(axis=axis + 1, dtype=np.int64)


class TestSegmentCounts:
    @pytest.mark.parametrize("shape", [(64, 48), (70, 33), (1, 5), (0, 4)])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("tile", [16, 32, 300])
    def test_boolean_masks_match_the_padded_sum(self, shape, order, axis, tile):
        rng = np.random.default_rng(sum(shape) + tile)
        mask = np.asarray(rng.random(shape) < 0.9, order=order)
        counts = segment_nnz(mask, tile, axis)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, padded_segment_sums(mask, tile, axis))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_int64_counts_above_255_keep_an_int64_accumulator(
        self, order, axis
    ):
        # The k-tile reduction of the operand summary sums per-segment
        # counts of up to 32, so its block sums reach 16 * 32 = 512.
        counts = np.asarray(np.full((40, 37), 32, dtype=np.int64), order=order)
        sums = segment_nnz(counts, 16, axis)
        assert sums.max() == 512
        assert np.array_equal(sums, padded_segment_sums(counts, 16, axis))


class TestEncodedAdversarial:
    def test_mismatched_two_level_geometry_is_reencoded(self):
        rng = np.random.default_rng(5)
        a = random_sparse_matrix((48, 40), 0.4, rng)
        b = random_sparse_matrix((40, 48), 0.4, rng)
        dense = device_spgemm(a, b, backend="reference")
        # Deliberately wrong tile shapes/orders for the sides they serve.
        odd_a = TwoLevelBitmapMatrix.from_dense(a, (8, 8), order="row")
        odd_b = TwoLevelBitmapMatrix.from_dense(b, (8, 8), order="col")
        encoded = device_spgemm(odd_a, odd_b, backend="reference")
        assert np.array_equal(dense.output, encoded.output)
        assert dense.stats == encoded.stats

    def test_non_finite_encoded_operands_fall_back_bit_identical(self):
        rng = np.random.default_rng(11)
        a = random_sparse_matrix((40, 300), 0.3, rng).astype(np.float64)
        b = random_sparse_matrix((300, 40), 0.3, rng).astype(np.float64)
        a[0, 0], b[7, 3] = np.inf, np.nan
        dense = device_spgemm(a, b, backend="blocked")
        a_op = EncodedOperand.for_a(a).warm(WarpTileConfig(), panel=256)
        assert not a_op.all_finite
        encoded = device_spgemm(a_op, EncodedOperand.for_b(b), backend="blocked")
        assert np.array_equal(dense.output, encoded.output, equal_nan=True)
        assert dense.stats == encoded.stats

    def test_side_mismatch_rejected(self):
        op = EncodedOperand.for_a(np.ones((4, 4)))
        with pytest.raises(ConfigError):
            device_spgemm(np.ones((4, 4)), op)

    def test_unknown_side_rejected(self):
        with pytest.raises(ConfigError):
            EncodedOperand(np.ones((4, 4)), "c")

    def test_element_bytes_variants_keep_footprint_parity(self):
        rng = np.random.default_rng(3)
        a = random_sparse_matrix((33, 47), 0.3, rng)
        b = random_sparse_matrix((47, 33), 0.3, rng)
        a_op, b_op = EncodedOperand.for_a(a), EncodedOperand.for_b(b)
        for element_bytes in (1, 2, 4):
            dense = device_spgemm(a, b, element_bytes=element_bytes)
            encoded = device_spgemm(a_op, b_op, element_bytes=element_bytes)
            assert dense.stats == encoded.stats

    def test_two_level_wrapper_is_attached_once(self):
        a = random_sparse_matrix((32, 32), 0.4, np.random.default_rng(0))
        encoded = TwoLevelBitmapMatrix.from_dense(a, (32, 16), order="col")
        first = as_gemm_operand(encoded, "a")
        second = as_gemm_operand(encoded, "a")
        assert first is second
        # The provided encoding itself serves the reference backend.
        assert first.two_level(WarpTileConfig()) is encoded

    def test_sparse_matrix_wrapper_is_attached_once(self):
        sm = SparseMatrix.from_dense(
            random_sparse_matrix((16, 16), 0.5, np.random.default_rng(1))
        )
        assert as_gemm_operand(sm, "a") is as_gemm_operand(sm, "a")

    def test_dense_view_round_trip(self):
        a = random_sparse_matrix((20, 24), 0.4, np.random.default_rng(2))
        encoded = TwoLevelBitmapMatrix.from_dense(a, (32, 16), order="col")
        assert encoded.dense_view() is a
        # Hand-assembled instances reconstruct (lossy float32 is fine
        # because their values were stored as float32 to begin with).
        rebuilt = TwoLevelBitmapMatrix(
            shape=encoded.shape,
            tile_shape=encoded.tile_shape,
            warp_bitmap=encoded.warp_bitmap,
            tiles=encoded.tiles,
            order=encoded.order,
            element_bytes=encoded.element_bytes,
        )
        assert np.array_equal(rebuilt.dense_view(), encoded.to_dense())
