"""Blocked vs vectorized vs reference parity for the blocked engine.

Hypothesis drives randomized (shape, sparsity) draws through all three
functional backends and asserts:

* every ``DeviceStats`` / ``WarpStats`` field is *bit-identical* across
  the three backends (the blocked engine reuses the closed-form stats,
  so this locks the wiring down),
* the numeric output is exactly equal on integer-valued float data
  (chunk-order association is exact when every partial sum is
  representable), and
* on general float data the blocked output stays within 2 float32 ulps
  of the reference, with the vectorized path still bit-identical.

A second strategy draws block-pruned A operands whose tile share
straddles :data:`TILE_PATH_MAX_SHARE`, so both the warp-tile and the
whole-matrix path run; every such case also asserts which path ran.

Live-step counts on both sides of :data:`MAX_PRODUCT_STEPS` pin the
chunking: no matmul sums more than that many steps, no dead step
reaches a matmul, and the result keeps the tolerance above.
Adversarial cases get dedicated tests: K not a multiple of the step
bound, single-row/column operands, and non-finite values (which must
fall back to the bit-exact condensed path).  Both paths must also give
byte-identical outputs with BLAS capped at one thread and uncapped, on
every layer shape of the model zoo at benchmark scale, since a server
caps it while the oracles run uncapped; whole-matrix products on either
side of the row-count rule pin which orientation each one runs.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine_blocked
from repro.core.conv_operand import ConvOperand
from repro.core.engine_blocked import (
    MAX_PRODUCT_STEPS,
    TILE_PATH_MAX_SHARE,
    blocked_device_spgemm,
    blocked_numeric_product,
)
from repro.core.spconv import CompiledConvWeights
from repro.core.spgemm_device import BACKENDS, device_spgemm, resolve_backend
from repro.errors import ShapeError
from repro.nn.models import DEFAULT_MODELS, get_benchmark_scale, get_model
from repro.nn.session import compile_model
from repro.nn.synthetic import conv_feature_map, conv_layer_weights
from repro.sparsity.generators import random_sparse_matrix
from repro.utils import blas

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

#: Shapes stressing single-row/column operands and K values on both
#: sides of the tk=16 tile (so clipped k-tiles occur).
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

    M is never a multiple of ``tm`` (32) and K never a multiple of
    :data:`MAX_PRODUCT_STEPS`.  Blocks of 32 rows keep the tile share
    near the block density (0.02-0.3, the warp-tile side of the
    threshold); 8- and 16-row blocks put several blocks in one row tile
    and push the share up to the whole-matrix side.
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
    return "tile" if share < TILE_PATH_MAX_SHARE else "matrix"


def run_spying_products(func, *args, **kwargs):
    """``(result, [(rows, steps), ...])``: every product ``func`` ran."""
    with mock.patch.object(
        engine_blocked, "_live_step_product",
        wraps=engine_blocked._live_step_product,
    ) as product:
        result = func(*args, **kwargs)
    return result, [call.args[2:4] for call in product.call_args_list]


def path_of(products):
    """The path a list of products ran: ``"matrix"``, ``"tile"`` or ``None``.

    The whole-matrix path runs one product over every row, the warp-tile
    path one per non-empty row tile.
    """
    rows = [tile_rows for tile_rows, _ in products]
    if slice(None) in rows:
        assert rows == [slice(None)]
        return "matrix"
    return "tile" if rows else None


def run_spying_paths(func, *args, **kwargs):
    """``(result, path)``: which blocked-engine path ``func`` ran."""
    result, products = run_spying_products(func, *args, **kwargs)
    return result, path_of(products)


def run_spying_matmuls(func, *args, **kwargs):
    """``(result, [(a_block, b_block), ...])`` of every matmul ``func`` ran."""
    with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
        result = func(*args, **kwargs)
    return result, [call.args for call in matmul.call_args_list]


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


#: Live steps in one product: one, either side of and at
#: :data:`MAX_PRODUCT_STEPS`, and past two chunks.
LIVE_STEP_COUNTS = [1, 255, 256, 257, 513]


def live_step_operands(live, path, integer_valued):
    """Operands with exactly ``live`` live steps, on ``path``.

    A third as many dead steps sit among them, alternately an empty A
    column and an empty B row, so most chunks are gathers.  On the
    warp-tile path only the first of four row tiles holds non-zeros, a
    tile share of 0.25.
    """
    rng = np.random.default_rng(live)
    k_dim = live + live // 3 + 2
    dead = rng.choice(k_dim, k_dim - live, replace=False)
    if integer_valued:
        a = rng.integers(1, 9, (123, k_dim)).astype(np.float64)
        b = rng.integers(-8, 9, (k_dim, 24)).astype(np.float64)
        b[b == 0] = 1.0
    else:
        a = rng.uniform(0.5, 1.5, (123, k_dim))
        b = rng.uniform(0.5, 1.5, (k_dim, 24))
    a[:, dead[::2]] = 0.0
    b[dead[1::2]] = 0.0
    if path == "tile":
        a[32:] = 0.0
    return a, b


class TestLiveStepCounts:
    @pytest.mark.parametrize("path", ["matrix", "tile"])
    @pytest.mark.parametrize("live", LIVE_STEP_COUNTS)
    @pytest.mark.parametrize("integer_valued", [True, False])
    def test_exact_on_integers_within_two_ulps_otherwise(
        self, live, path, integer_valued
    ):
        a, b = live_step_operands(live, path, integer_valued)
        reference = device_spgemm(a, b, backend="reference")
        blocked, ran = run_spying_paths(device_spgemm, a, b, backend="blocked")
        assert ran == path
        assert reference.stats == blocked.stats
        if integer_valued:
            assert np.array_equal(reference.output, blocked.output)
        else:
            assert_within_float32_ulps(blocked.output, reference.output)

    @pytest.mark.parametrize("path", ["matrix", "tile"])
    @pytest.mark.parametrize("live", LIVE_STEP_COUNTS)
    def test_matmuls_sum_at_most_the_bound_and_only_live_steps(
        self, live, path
    ):
        a, b = live_step_operands(live, path, integer_valued=True)
        out, matmuls = run_spying_matmuls(blocked_numeric_product, a, b)
        assert np.array_equal(out, a @ b)
        assert len(matmuls) == -(-live // MAX_PRODUCT_STEPS)
        for a_block, b_block in matmuls:
            assert a_block.shape[1] <= MAX_PRODUCT_STEPS
            assert (a_block != 0).any(axis=0).all()
            assert (b_block != 0).any(axis=1).all()
        assert sum(a_block.shape[1] for a_block, _ in matmuls) == live


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


#: Every model of the zoo at its benchmark scale.  The smaller scales
#: the suite compiles are covered by
#: ``tests/nn/test_session.py::test_batch_matches_per_image_loop``,
#: whose one-thread batch chunks must match the uncapped oracle.
ZOO_SCALES = [(model, get_benchmark_scale(model)) for model in DEFAULT_MODELS]


class TestBlasThreadCount:
    """Capping BLAS to one thread must not change a single output byte.

    A server caps OpenBLAS at cores // workers threads while the
    benchmark's and the soak's oracles run uncapped, and both compare
    digests of the bytes.  OpenBLAS 0.3.31 gave different bytes at 1
    and 2 threads once a matmul summed more than 384 steps (for most
    counts that are not a multiple of 32), so the ``-long`` cases hold
    only because no matmul sums more than :data:`MAX_PRODUCT_STEPS`.
    Within that bound it still did whenever the output's contiguous
    dimension was not a multiple of 8, so the whole-matrix path's
    orientation follows A's row count (the ``rows-`` cases), the warp
    tiles and an ``A @ B`` with neither dimension a multiple of 8
    multiply into rows widened to one (``tile-250``, ``rows-950-250``),
    and a conv layer's wide row length is rounded up to one
    (``test_conv_wide_length_is_byte_identical``).
    """

    @staticmethod
    def _operands(case):
        rng = np.random.default_rng(23)
        if case == "matrix-long":
            # ResNet-18 layer 3-2 at scale 0.0625: a 9 x 1152 lowered
            # (column-major) A with 1070 of its 1152 steps live.
            a = np.asfortranarray(rng.uniform(0.5, 1.5, (9, 1152)))
            a[:, rng.choice(1152, 82, replace=False)] = 0.0
            return a, rng.uniform(0.5, 1.5, (1152, 128))
        if case == "tile-long":
            # Blocks at 20% density put several hundred live steps in
            # the busiest row tile; B's 5% all-zero features unalign it.
            mask = _block_pruned(rng, (512, 3072), 32, 0.2)
            a = np.where(mask, rng.uniform(0.5, 1.5, mask.shape), 0.0)
            activations = rng.uniform(0.5, 1.5, (256, 3072)).astype(np.float32)
            activations[:, rng.random(3072) < 0.05] = 0.0
            return a, activations.T
        if case == "tile-250":
            # Whole 32-row tiles of 256 dense steps against a 250-wide B:
            # each tile's matmul had a 250-element contiguous dimension.
            a = np.zeros((512, 256))
            a[64:96] = rng.uniform(0.5, 1.5, (32, 256))
            a[320:352] = rng.uniform(0.5, 1.5, (32, 256))
            return a, rng.uniform(0.5, 1.5, (256, 250))
        if case == "tile":
            mask = _block_pruned(rng, (512, 1024), 32, 0.1)
            a = np.where(mask, rng.uniform(0.5, 1.5, mask.shape), 0.0)
        else:
            a = random_sparse_matrix((512, 1024), 0.5, rng)
        # A session's B: transposed float32 activations (F-ordered).
        b = random_sparse_matrix((256, 1024), 0.9, rng).T
        return a, b

    @staticmethod
    def _capped(func, *args):
        """``func(*args)`` with every OpenBLAS capped at one thread."""
        original = blas.blas_thread_counts()
        try:
            blas.cap_blas_threads(len(os.sched_getaffinity(0)))
            assert set(blas.blas_thread_counts().values()) == {1}
            return func(*args)
        finally:
            blas.restore_blas_threads(original)

    @pytest.fixture(autouse=True)
    def _threaded_blas(self):
        original = blas.blas_thread_counts()
        if not original or max(original.values()) <= 1:
            pytest.skip("BLAS already runs one thread: the cap cannot lower it")

    @pytest.mark.parametrize(
        "case", ["matrix", "tile", "matrix-long", "tile-long", "tile-250"]
    )
    def test_capped_output_is_byte_identical(self, case):
        a, b = self._operands(case)
        uncapped, products = run_spying_products(blocked_numeric_product, a, b)
        assert path_of(products) == case.split("-")[0]
        if case.endswith("-long"):
            # One matmul over these steps would differ between threads.
            longest = max(steps.size for _, steps in products)
            assert longest > 384 and longest % 32
        capped = self._capped(blocked_numeric_product, a, b)
        assert capped.tobytes() == uncapped.tobytes()

    @pytest.mark.parametrize(
        "m_dim,n_dim,transposed",
        [(950, 128, False), (952, 250, True), (950, 250, False)],
        ids=["rows-950", "rows-952", "rows-950-250"],
    )
    def test_whole_matrix_orientation_follows_row_count(
        self, m_dim, n_dim, transposed
    ):
        # Dense values over 300 live steps, so two matmuls.  At M = 950
        # the transposed product differs between 1 and 2 threads (its
        # contiguous dimension is 950); at M = 952, A @ B does (250).
        # At 950 x 250 neither orientation would hold: A @ B runs into
        # rows widened to 256 and returns a view of its first 250
        # columns, which is neither C- nor F-contiguous.
        rng = np.random.default_rng(m_dim)
        a = np.asfortranarray(rng.uniform(0.5, 1.5, (m_dim, 300)))
        b = rng.uniform(0.5, 1.5, (300, n_dim))
        uncapped, products = run_spying_products(blocked_numeric_product, a, b)
        assert path_of(products) == "matrix"
        assert products[0][1].size > MAX_PRODUCT_STEPS
        # The transposed product returns its C-ordered (N, M) buffer's
        # transpose, an F-ordered view.
        assert uncapped.flags.f_contiguous == transposed
        assert uncapped.flags.c_contiguous == (
            not transposed and n_dim % 8 == 0
        )
        capped = self._capped(blocked_numeric_product, a, b)
        assert capped.tobytes() == uncapped.tobytes()

    @pytest.mark.parametrize("image", [0, 1])
    @pytest.mark.parametrize(
        "model,scale", ZOO_SCALES, ids=[f"{m}-{s}" for m, s in ZOO_SCALES]
    )
    def test_every_zoo_layer_shape_is_byte_identical(
        self, model, scale, image
    ):
        # One image through every layer, each on the path it takes.
        # Image 1 puts values in Mask R-CNN res3-conv (M = 950) whose
        # transposed product differs between 1 and 2 threads.
        session = compile_model(model, scale=scale, memo=False)
        uncapped = session.run_image(image).layers
        capped = self._capped(session.run_image, image).layers
        for plain, layer in zip(uncapped, capped):
            assert layer.output.tobytes() == plain.output.tobytes(), layer.layer

    @pytest.mark.parametrize("layer", ["res2-conv", "fpn-p2"])
    def test_conv_wide_length_is_byte_identical(self, layer):
        # Mask R-CNN at scale 0.25: maps of 50 x 76 padded to 52 x 78.
        # The wide length 50 x 78 = 3900 is rounded up to 3904; left at
        # 3900 (a mutation run), fpn-p2's 3900-wide product differed in
        # 2 elements between 1 and 2 threads on image 1 (res2-conv, in
        # 1248-column bands with a 156-wide last one, did not).
        model = get_model("Mask R-CNN")
        spec = next(s for s in model.conv_layers if s.name == layer)
        feature_map = conv_feature_map(
            model.name, spec, 2021, image=1, scale=0.25
        )
        weights = CompiledConvWeights.from_dense(
            conv_layer_weights(model.name, spec, 2021)
        ).operand
        operand = ConvOperand(feature_map, spec.kernel, spec.stride, spec.padding)
        assert feature_map.shape[1:] == (50, 76)
        assert operand.row_length == 3904
        uncapped = blocked_numeric_product(operand, weights)
        capped = self._capped(blocked_numeric_product, operand, weights)
        assert capped.tobytes() == uncapped.tobytes()


class TestAdversarialCases:
    def test_no_dead_step_reaches_a_matmul(self):
        # A and B only populate k < 12: the 52 steps past them are dead
        # and must never be sliced or gathered into a matmul.
        a = np.zeros((8, 64))
        b = np.zeros((64, 8))
        a[:, :12] = 1.0
        b[:12, :] = 2.0
        out, matmuls = run_spying_matmuls(blocked_numeric_product, a, b)
        assert np.array_equal(out, a @ b)
        assert [a_block.shape for a_block, _ in matmuls] == [(8, 12)]
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    def test_disjoint_k_support_is_all_zero(self):
        # A's columns and B's rows never overlap on any k: every step is
        # dead, no matmul runs, the output is exactly zero.
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
    def test_k_not_multiple_of_the_step_bound(self, k_dim):
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
