"""Blocked vs vectorized vs reference parity for the K-panel engine.

Hypothesis drives randomized (shape, sparsity, panel geometry) draws
through all three functional backends and asserts:

* every ``DeviceStats`` / ``WarpStats`` field is *bit-identical* across
  the three backends (the blocked engine reuses the closed-form stats,
  so this locks the wiring down),
* the numeric output is exactly equal on integer-valued float data
  (panel-order association is exact when every partial sum is
  representable), and
* on general float data the blocked output stays within 2 float32 ulps
  of the reference, with the vectorized path still bit-identical.

A second strategy draws block-pruned A operands whose tile share
straddles :data:`TILE_PATH_MAX_SHARE`, so both the warp-tile and the
K-panel path run; every such case also asserts which path ran.

Adversarial cases get dedicated tests: all-empty panels, K not a
multiple of the panel size, single-row/column operands, and non-finite
values (which must fall back to the bit-exact condensed path).  Both
paths must also give byte-identical outputs whatever the BLAS thread
count, since a server caps it while the oracles run uncapped.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine_blocked
from repro.core.engine_blocked import (
    DEFAULT_PANEL_TILES,
    TILE_PATH_MAX_SHARE,
    blocked_device_spgemm,
    blocked_numeric_product,
)
from repro.core.spgemm_device import BACKENDS, device_spgemm, resolve_backend
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ShapeError
from repro.sparsity.generators import random_sparse_matrix
from repro.utils import blas

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

#: Shapes stressing single-row/column operands and K values on both
#: sides of the tk=16 tile (so edge panels and clipped k-tiles occur).
dims = st.sampled_from([1, 2, 7, 15, 16, 17, 31, 33, 48, 64, 70])
densities = st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])


def _draw_operands(draw, integer_valued):
    m, k, n = draw(dims), draw(dims), draw(dims)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    density_a, density_b = draw(densities), draw(densities)
    if integer_valued:
        a = np.where(
            rng.random((m, k)) < density_a, rng.integers(-8, 9, (m, k)), 0
        ).astype(np.float64)
        b = np.where(
            rng.random((k, n)) < density_b, rng.integers(-8, 9, (k, n)), 0
        ).astype(np.float64)
    else:
        a = random_sparse_matrix((m, k), density_a, rng)
        b = random_sparse_matrix((k, n), density_b, rng)
    return a, b


@st.composite
def integer_operand_pairs(draw):
    return _draw_operands(draw, integer_valued=True)


@st.composite
def float_operand_pairs(draw):
    return _draw_operands(draw, integer_valued=False)


def _block_pruned(rng, shape, block, density):
    """Boolean mask of ``block`` x ``block`` non-zero blocks, at least one."""
    rows, cols = -(-shape[0] // block), -(-shape[1] // block)
    blocks = rng.random((rows, cols)) < density
    blocks[rng.integers(rows), rng.integers(cols)] = True
    tile = np.ones((block, block), dtype=bool)
    return np.kron(blocks, tile)[: shape[0], : shape[1]]


@st.composite
def block_pruned_pairs(draw, integer_valued):
    """A pruned in square blocks, B with some all-zero rows.

    M is never a multiple of ``tm`` (32) and K never a multiple of the
    256-step default panel.  Blocks of 32 rows keep the tile share near
    the block density (0.02-0.3, the warp-tile side of the threshold);
    8- and 16-row blocks put several blocks in one row tile and push the
    share up to the K-panel side.
    """
    m = draw(st.sampled_from([100, 130, 200, 250]))
    k = draw(st.sampled_from([40, 100, 300]))
    n = draw(st.sampled_from([1, 16, 33]))
    block = draw(st.sampled_from([8, 16, 32]))
    density = draw(st.floats(0.02, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a_mask = _block_pruned(rng, (m, k), block, density)
    b_mask = (rng.random((k, 1)) < draw(st.sampled_from([0.7, 1.0]))) & (
        rng.random((k, n)) < 0.8
    )
    if integer_valued:
        a = np.where(a_mask, rng.integers(-8, 9, (m, k)), 0).astype(np.float64)
        b = np.where(b_mask, rng.integers(-8, 9, (k, n)), 0).astype(np.float64)
    else:
        a = np.where(a_mask, rng.uniform(0.5, 1.5, (m, k)), 0.0)
        b = np.where(b_mask, rng.uniform(0.5, 1.5, (k, n)), 0.0)
    return a, b


def expected_path(a, b, tm=32):
    """The path the tile-share rule picks, computed from the dense arrays.

    ``None`` when no reduction step is live and neither path runs.
    """
    alive = (a != 0).any(axis=0) & (b != 0).any(axis=1)
    if not alive.any():
        return None
    tiles = np.array(
        [(a[r0 : r0 + tm] != 0).any(axis=0) for r0 in range(0, a.shape[0], tm)]
    )
    share = tiles[:, alive].mean()
    return "tile" if share < TILE_PATH_MAX_SHARE else "panel"


def run_spying_paths(func, *args, **kwargs):
    """``(result, path)``: which blocked-engine path ``func`` ran."""
    with mock.patch.object(
        engine_blocked, "_warp_tile_product",
        wraps=engine_blocked._warp_tile_product,
    ) as tile, mock.patch.object(
        engine_blocked, "_panel_operand", wraps=engine_blocked._panel_operand
    ) as panel:
        result = func(*args, **kwargs)
    assert not (tile.called and panel.called)
    path = "tile" if tile.called else "panel" if panel.called else None
    return result, path


def assert_within_float32_ulps(actual, expected, ulps=2):
    """Outputs must agree to ``ulps`` float32 ulps once rounded."""
    actual32 = actual.astype(np.float32)
    expected32 = expected.astype(np.float32)
    spacing = np.spacing(np.abs(expected32))
    assert np.all(np.abs(actual32 - expected32) <= ulps * spacing), (
        "blocked output drifted beyond the 2-ulp float32 budget: max "
        f"diff {np.abs(actual32 - expected32).max()}"
    )


class TestHypothesisParity:
    @SETTINGS
    @given(integer_operand_pairs())
    def test_integer_valued_data_is_exact(self, operands):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        vectorized = device_spgemm(a, b, backend="vectorized")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert np.array_equal(reference.output, vectorized.output)
        assert reference.stats == blocked.stats == vectorized.stats

    @SETTINGS
    @given(float_operand_pairs())
    def test_float_data_within_two_ulps_stats_bit_identical(self, operands):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert reference.stats == blocked.stats
        assert_within_float32_ulps(blocked.output, reference.output)

    @SETTINGS
    @given(float_operand_pairs(), st.sampled_from([1, 2, 3, 16]))
    def test_panel_size_never_changes_stats_or_exceeds_tolerance(
        self, operands, panel_tiles
    ):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        blocked = blocked_device_spgemm(a, b, panel_tiles=panel_tiles)
        assert reference.stats == blocked.stats
        assert_within_float32_ulps(blocked.output, reference.output)


class TestWarpTilePath:
    @SETTINGS
    @given(block_pruned_pairs(integer_valued=True))
    def test_integer_valued_data_is_exact_on_either_path(self, operands):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        blocked, path = run_spying_paths(device_spgemm, a, b, backend="blocked")
        assert path == expected_path(a, b)
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    @SETTINGS
    @given(block_pruned_pairs(integer_valued=False))
    def test_float_data_within_two_ulps_on_either_path(self, operands):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        blocked, path = run_spying_paths(device_spgemm, a, b, backend="blocked")
        assert path == expected_path(a, b)
        assert reference.stats == blocked.stats
        assert_within_float32_ulps(blocked.output, reference.output)


class TestBlasThreadCount:
    """Capping BLAS to one thread must not change a single output byte.

    A server caps OpenBLAS at cores // workers threads while the
    benchmark's and the soak's oracles run uncapped, and both compare
    digests of the bytes.
    """

    @staticmethod
    def _operands(path):
        rng = np.random.default_rng(23)
        if path == "tile":
            mask = _block_pruned(rng, (512, 1024), 32, 0.1)
            a = np.where(mask, rng.uniform(0.5, 1.5, mask.shape), 0.0)
        else:
            a = random_sparse_matrix((512, 1024), 0.5, rng)
        # A session's B: transposed float32 activations (F-ordered).
        b = random_sparse_matrix((256, 1024), 0.9, rng).T
        return a, b

    @pytest.mark.parametrize("path", ["panel", "tile"])
    def test_capped_output_is_byte_identical(self, path):
        original = blas.blas_thread_counts()
        if not original or max(original.values()) <= 1:
            pytest.skip("BLAS already runs one thread: the cap cannot lower it")
        a, b = self._operands(path)
        uncapped, ran = run_spying_paths(blocked_numeric_product, a, b)
        assert ran == path
        try:
            blas.cap_blas_threads(len(os.sched_getaffinity(0)))
            assert set(blas.blas_thread_counts().values()) == {1}
            capped = blocked_numeric_product(a, b)
        finally:
            blas.restore_blas_threads(original)
        assert capped.tobytes() == uncapped.tobytes()


class TestAdversarialCases:
    def test_all_empty_panels_skipped(self):
        # A and B only populate k < 16: with tk=16 and one-tile panels,
        # every panel past the first is all-empty and must be skipped.
        a = np.zeros((8, 64))
        b = np.zeros((64, 8))
        a[:, :12] = 1.0
        b[:12, :] = 2.0
        config = WarpTileConfig()
        out = blocked_numeric_product(a, b, config=config, panel_tiles=1)
        assert np.array_equal(out, a @ b)
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    def test_disjoint_k_support_is_all_zero(self):
        # A's columns and B's rows never overlap on any k: every step is
        # dead, every panel is skipped, the output is exactly zero.
        rng = np.random.default_rng(7)
        a = np.zeros((20, 40))
        b = np.zeros((40, 20))
        a[:, ::2] = rng.uniform(0.5, 1.5, (20, 20))
        b[1::2, :] = rng.uniform(0.5, 1.5, (20, 20))
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(blocked.output, np.zeros((20, 20)))
        reference = device_spgemm(a, b, backend="reference")
        assert reference.stats == blocked.stats

    @pytest.mark.parametrize("k_dim", [1, 15, 17, 255, 257])
    def test_k_not_multiple_of_panel(self, k_dim):
        rng = np.random.default_rng(k_dim)
        a = np.where(
            rng.random((16, k_dim)) < 0.4, rng.integers(-4, 5, (16, k_dim)), 0
        ).astype(np.float64)
        b = np.where(
            rng.random((k_dim, 16)) < 0.4, rng.integers(-4, 5, (k_dim, 16)), 0
        ).astype(np.float64)
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    @pytest.mark.parametrize("shape_a,shape_b", [((1, 300), (300, 1)), ((1, 1), (1, 1)), ((40, 1), (1, 40))])
    def test_single_row_column_operands(self, shape_a, shape_b):
        rng = np.random.default_rng(3)
        a = random_sparse_matrix(shape_a, 0.6, rng)
        b = random_sparse_matrix(shape_b, 0.6, rng)
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert reference.stats == blocked.stats
        assert_within_float32_ulps(blocked.output, reference.output)

    def test_non_finite_values_fall_back_bit_identical(self):
        # 0.0 * inf = NaN must never be formed; the blocked engine must
        # delegate to the condensed per-step path, which is bit-exact.
        a = np.zeros((40, 300))
        b = np.zeros((300, 40))
        rng = np.random.default_rng(11)
        a[rng.random(a.shape) < 0.3] = 1.5
        b[rng.random(b.shape) < 0.3] = 0.5
        a[0, 0], b[1, 1], a[2, 7], b[7, 3] = np.inf, -np.inf, np.nan, np.inf
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output, equal_nan=True)
        assert reference.stats == blocked.stats

    def test_empty_matrices(self):
        reference = device_spgemm(np.zeros((64, 32)), np.zeros((32, 64)), backend="reference")
        blocked = device_spgemm(np.zeros((64, 32)), np.zeros((32, 64)), backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    def test_invalid_panel_tiles_rejected(self):
        with pytest.raises(ShapeError):
            blocked_numeric_product(np.ones((4, 4)), np.ones((4, 4)), panel_tiles=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            blocked_device_spgemm(np.zeros((8, 4)), np.zeros((8, 4)))


class TestAutoDispatch:
    def test_auto_resolves_to_blocked(self):
        assert resolve_backend("auto") == "blocked"
        for backend in BACKENDS[1:]:
            assert resolve_backend(backend) == backend

    def test_collect_positions_forces_reference(self):
        assert resolve_backend("auto", collect_positions=True) == "reference"
        assert resolve_backend("blocked", collect_positions=True) == "reference"

    def test_default_backend_is_auto(self, rng, monkeypatch):
        a = random_sparse_matrix((48, 32), 0.4, rng)
        b = random_sparse_matrix((32, 48), 0.4, rng)
        ran = []
        real = engine_blocked.blocked_device_spgemm

        def spy(*args, **kwargs):
            ran.append("blocked")
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_blocked, "blocked_device_spgemm", spy)
        default = device_spgemm(a, b)
        assert ran == ["blocked"]
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(default.output, blocked.output)
        assert default.stats == blocked.stats
