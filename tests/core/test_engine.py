"""Vectorized engine vs. reference loop: exact numeric + stats equality."""

import numpy as np
import pytest

from repro.core.api import spgemm, spgemm_batched
from repro.core.engine import vectorized_device_spgemm, vectorized_numeric_product
from repro.core.operands import device_stats_from_operands
from repro.core.spconv import sparse_conv2d
from repro.core.spgemm_device import device_spgemm
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ConfigError, ShapeError
from repro.sparsity.generators import random_sparse_matrix


def assert_identical(a, b, config=None):
    """Both backends must agree bit-for-bit on output and statistics."""
    reference = device_spgemm(a, b, config=config, backend="reference")
    vectorized = device_spgemm(a, b, config=config, backend="vectorized")
    assert np.array_equal(reference.output, vectorized.output)
    assert reference.stats == vectorized.stats


class TestVectorizedMatchesReference:
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9, 1.0])
    def test_sparsity_sweep(self, rng, sparsity):
        a = random_sparse_matrix((96, 64), 1.0 - sparsity, rng)
        b = random_sparse_matrix((64, 96), 1.0 - sparsity, rng)
        assert_identical(a, b)

    @pytest.mark.parametrize("sparsity_a,sparsity_b", [(0.0, 0.9), (0.9, 0.0)])
    def test_asymmetric_sparsity(self, rng, sparsity_a, sparsity_b):
        a = random_sparse_matrix((64, 48), 1.0 - sparsity_a, rng)
        b = random_sparse_matrix((48, 64), 1.0 - sparsity_b, rng)
        assert_identical(a, b)

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((70, 45), (45, 50)), ((33, 17), (17, 31)), ((1, 1), (1, 3)), ((31, 16), (16, 100))],
    )
    def test_non_tile_aligned_shapes(self, rng, shape_a, shape_b):
        a = random_sparse_matrix(shape_a, 0.4, rng)
        b = random_sparse_matrix(shape_b, 0.4, rng)
        assert_identical(a, b)

    def test_empty_matrices(self):
        assert_identical(np.zeros((64, 32)), np.zeros((32, 64)))

    def test_empty_times_dense(self, rng):
        a = np.zeros((64, 32))
        b = rng.uniform(size=(32, 64))
        assert_identical(a, b)

    def test_blocked_pattern(self, rng):
        a = random_sparse_matrix((128, 64), 0.3, rng, pattern="blocked")
        b = random_sparse_matrix((64, 128), 0.5, rng, pattern="blocked")
        assert_identical(a, b)

    def test_custom_tile_config(self, rng):
        config = WarpTileConfig(tm=16, tn=16, tk=8)
        a = random_sparse_matrix((40, 20), 0.4, rng)
        b = random_sparse_matrix((20, 40), 0.4, rng)
        assert_identical(a, b, config=config)

    def test_non_finite_operands(self):
        # 0.0 * inf = NaN must never be formed: the reference condenses
        # non-zeros first, so the engine has to as well.
        a = np.zeros((8, 4))
        a[:, 0] = 1.0
        a[2, 0] = 0.0
        b = np.zeros((4, 8))
        b[0, :] = 1.0
        b[0, 3] = np.inf
        assert_identical(a, b)
        assert not np.isnan(
            device_spgemm(a, b, backend="vectorized").output
        ).any()

    def test_element_bytes_forwarded(self, rng):
        a = random_sparse_matrix((64, 32), 0.3, rng)
        b = random_sparse_matrix((32, 64), 0.3, rng)
        reference = device_spgemm(a, b, element_bytes=4, backend="reference")
        vectorized = device_spgemm(a, b, element_bytes=4, backend="vectorized")
        assert reference.stats == vectorized.stats


class TestEngineUnits:
    def test_numeric_product_matches_matmul(self, rng):
        a = rng.uniform(size=(50, 30)).astype(np.float32)
        b = rng.uniform(size=(30, 40)).astype(np.float32)
        product = vectorized_numeric_product(a, b)
        assert product.dtype == np.float64
        assert np.allclose(product, a.astype(np.float64) @ b.astype(np.float64))

    def test_stats_match_reference_fields(self, rng):
        a = random_sparse_matrix((64, 48), 0.25, rng)
        b = random_sparse_matrix((48, 64), 0.25, rng)
        stats = device_stats_from_operands(a, b, WarpTileConfig())
        assert stats == device_spgemm(a, b, backend="reference").stats

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            vectorized_device_spgemm(np.zeros((8, 4)), np.zeros((8, 4)))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            device_spgemm(np.zeros((8, 4)), np.zeros((4, 8)), backend="cuda")

    def test_collect_positions_falls_back_to_reference(self, rng):
        a = random_sparse_matrix((32, 16), 0.5, rng)
        b = random_sparse_matrix((16, 32), 0.5, rng)
        result = device_spgemm(a, b, collect_positions=True)
        assert result.stats.warp.merge.access_positions


class TestRandomizedParity:
    """Seeded fuzz sweep: the vectorized engine must match the reference
    loop bit-for-bit on arbitrary shapes (including edge tiles clipped by
    non-multiple-of-32 dimensions) and with non-finite operand values."""

    @pytest.mark.parametrize("draw_seed", range(20))
    def test_random_draw_matches_reference(self, draw_seed):
        rng = np.random.default_rng(515000 + draw_seed)
        # Shapes intentionally off the 32x32x16 tile grid most of the time.
        m = int(rng.integers(1, 97))
        k = int(rng.integers(1, 49))
        n = int(rng.integers(1, 97))
        a = random_sparse_matrix((m, k), float(rng.uniform(0.05, 1.0)), rng)
        b = random_sparse_matrix((k, n), float(rng.uniform(0.05, 1.0)), rng)
        if draw_seed % 2:
            # Sprinkle non-finite values over existing non-zeros: the
            # condense step must keep them out of skipped products.
            for matrix in (a, b):
                nz_rows, nz_cols = np.nonzero(matrix)
                if nz_rows.size:
                    picks = rng.integers(0, nz_rows.size, size=min(3, nz_rows.size))
                    specials = rng.choice([np.inf, -np.inf, np.nan], size=picks.size)
                    matrix[nz_rows[picks], nz_cols[picks]] = specials
        reference = device_spgemm(a, b, backend="reference")
        vectorized = device_spgemm(a, b, backend="vectorized")
        assert np.array_equal(reference.output, vectorized.output, equal_nan=True)
        assert reference.stats == vectorized.stats

    @pytest.mark.parametrize("draw_seed", range(5))
    def test_random_clipped_edge_tiles_with_custom_config(self, draw_seed):
        rng = np.random.default_rng(616000 + draw_seed)
        config = WarpTileConfig(tm=16, tn=16, tk=8)
        # One dimension exactly one past a tile boundary, one well inside.
        m = 16 * int(rng.integers(1, 4)) + 1
        k = 8 * int(rng.integers(1, 4)) + int(rng.integers(1, 8))
        n = 16 * int(rng.integers(1, 4)) + 15
        a = random_sparse_matrix((m, k), 0.3, rng)
        b = random_sparse_matrix((k, n), 0.3, rng)
        assert_identical(a, b, config=config)

    def test_all_nonfinite_operands(self):
        a = np.full((40, 24), np.inf)
        b = np.full((24, 40), -np.inf)
        reference = device_spgemm(a, b, backend="reference")
        vectorized = device_spgemm(a, b, backend="vectorized")
        assert np.array_equal(reference.output, vectorized.output, equal_nan=True)
        assert reference.stats == vectorized.stats


class TestBackendThroughApi:
    def test_spgemm_backends_agree(self, rng):
        a = random_sparse_matrix((64, 48), 0.3, rng)
        b = random_sparse_matrix((48, 64), 0.3, rng)
        vec = spgemm(a, b, backend="vectorized")
        ref = spgemm(a, b, backend="reference")
        assert np.array_equal(vec.dense, ref.dense)
        assert vec.stats == ref.stats

    def test_spconv_backends_agree(self, rng):
        feature_map = random_sparse_matrix((4 * 10, 10), 0.4, rng).reshape(4, 10, 10)
        weights = random_sparse_matrix((8, 4 * 9), 0.3, rng).reshape(8, 4, 3, 3)
        vec = sparse_conv2d(feature_map, weights, padding=1, backend="vectorized")
        ref = sparse_conv2d(feature_map, weights, padding=1, backend="reference")
        assert np.array_equal(vec.output, ref.output)
        assert vec.stats.gemm == ref.stats.gemm


class TestSpgemmBatched:
    def test_stacked_arrays(self, rng):
        a_batch = rng.uniform(size=(3, 32, 16)).astype(np.float32)
        b_batch = rng.uniform(size=(3, 16, 32)).astype(np.float32)
        results = spgemm_batched(a_batch, b_batch)
        assert len(results) == 3
        for i, result in enumerate(results):
            assert np.allclose(result.dense, a_batch[i] @ b_batch[i], atol=1e-5)

    def test_pair_sequence_with_mixed_shapes(self, rng):
        pairs = [
            (random_sparse_matrix((32, 16), 0.5, rng),
             random_sparse_matrix((16, 32), 0.5, rng)),
            (random_sparse_matrix((10, 7), 0.5, rng),
             random_sparse_matrix((7, 5), 0.5, rng)),
        ]
        results = spgemm_batched(pairs)
        assert [r.dense.shape for r in results] == [(32, 32), (10, 5)]
        for (a, b), result in zip(pairs, results):
            single = device_spgemm(a, b, backend="reference")
            assert np.array_equal(result.dense, single.output)
            assert result.stats == single.stats

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            spgemm_batched([np.eye(4)], [np.eye(4), np.eye(4)])


class TestModelFunctionalRuns:
    def test_resnet_slice_runs_and_aggregates(self):
        from repro.nn.functional import run_model_functional
        from repro.nn.models import get_model
        from dataclasses import replace

        model = get_model("ResNet-18")
        small = replace(model, conv_layers=model.conv_layers[1:3])
        run = run_model_functional(small, scale=0.125, seed=7)
        assert len(run.layers) == 2
        assert run.ohmma_issued > 0
        assert run.instruction_speedup > 1.0
        for layer in run.layers:
            assert layer.kind == "conv"
            assert layer.stats.warp.ohmma_dense >= layer.stats.warp.ohmma_issued

    def test_gemm_model_backends_agree(self):
        from repro.nn.functional import run_model_functional
        from repro.nn.models import get_model
        from dataclasses import replace

        model = get_model("RNN")
        small = replace(model, gemm_layers=model.gemm_layers[:1])
        vec = run_model_functional(small, scale=0.02, seed=3, backend="vectorized")
        ref = run_model_functional(small, scale=0.02, seed=3, backend="reference")
        assert vec.layers[0].stats == ref.layers[0].stats

    def test_invalid_scale_rejected(self):
        from repro.nn.functional import run_model_functional

        with pytest.raises(ConfigError):
            run_model_functional("ResNet-18", scale=0.0)
