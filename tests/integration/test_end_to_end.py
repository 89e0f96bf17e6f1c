"""End-to-end integration tests across the library's layers."""

import numpy as np
import pytest

from repro import SparseMatrix, spconv, spgemm
from repro.core.reference import reference_conv2d, reference_gemm
from repro.core.operands import device_stats_from_operands
from repro.core.spgemm_warp import warp_spgemm
from repro.isa.instructions import Opcode
from repro.isa.wmma import expand_spwmma
from repro.kernels.gemm_dual_sparse import DualSparseGemm
from repro.nn.activations import relu
from repro.pruning.agp import agp_prune
from repro.pruning.movement import block_movement_prune
from repro.sparsity.generators import random_sparse_matrix


class TestPrunedGemmPipeline:
    """Prune -> encode -> SpGEMM -> verify -> cost model, in one flow."""

    def test_agp_pruned_linear_layer(self, rng):
        weights = agp_prune(rng.standard_normal((128, 96)), final_sparsity=0.85)
        # Post-ReLU standard normal draws: half the activations are zero.
        activations = relu(rng.standard_normal((64, 128))).astype(np.float32)

        result = spgemm(
            SparseMatrix.from_dense(activations, "col"),
            SparseMatrix.from_dense(weights, "row"),
        )
        assert np.allclose(result.dense, reference_gemm(activations, weights))
        assert result.instruction_speedup > 1.5

        estimate = DualSparseGemm().estimate(activations, weights)
        assert estimate.time_us > 0
        assert estimate.details["instruction_speedup"] == pytest.approx(
            device_stats_from_operands(activations, weights).instruction_speedup
        )

    def test_movement_pruned_transformer_projection(self, rng):
        weights = block_movement_prune(
            rng.uniform(0.5, 1.5, size=(256, 128)), sparsity=0.9, block=32
        )
        activations = rng.uniform(0.5, 1.5, size=(64, 256))
        # Weight matrix on the fine-granularity side (transposed product).
        stats = device_stats_from_operands(weights.T.copy(), activations.T.copy())
        assert stats.warp_tile_pairs_skipped > 0
        assert stats.instruction_speedup > 3.0
        result = spgemm(activations, weights)
        assert np.allclose(result.dense, activations @ weights)


class TestSparseCnnPipeline:
    """ReLU activations -> bitmap im2col -> SpGEMM -> correct feature maps."""

    def test_two_layer_cnn(self, rng):
        fm = relu(rng.standard_normal((4, 12, 12)) - 0.4)
        w1 = agp_prune(rng.standard_normal((8, 4, 3, 3)), 0.7)
        w2 = agp_prune(rng.standard_normal((6, 8, 3, 3)), 0.8)

        out1 = spconv(fm, w1, stride=1, padding=1)
        assert np.allclose(out1.output, reference_conv2d(fm, w1, 1, 1))
        hidden = relu(out1.output)

        out2 = spconv(hidden, w2, stride=1, padding=1)
        expected = reference_conv2d(hidden, w2, 1, 1)
        assert np.allclose(out2.output, expected)
        assert out2.stats.gemm.instruction_speedup > 1.0


class TestAlgorithmHardwareConsistency:
    """The algorithm-level counters and the SpWMMA instruction stream must
    tell the same story for the same operands (the agreement Figure 5
    reports)."""

    @pytest.mark.parametrize("a_density,b_density", [(0.3, 0.5), (0.1, 0.05), (1.0, 1.0)])
    def test_counts_agree_across_layers(self, rng, a_density, b_density):
        a_tile = random_sparse_matrix((32, 16), a_density, rng)
        b_tile = random_sparse_matrix((16, 32), b_density, rng)
        # Empty steps on each side, so whole sets are skipped too.
        a_tile[:, 3] = 0.0
        b_tile[7, :] = 0.0

        _, algo_stats = warp_spgemm(a_tile, b_tile)
        expansion = expand_spwmma(a_tile != 0, b_tile != 0)

        assert expansion.ohmma_enabled == algo_stats.ohmma_issued
        assert expansion.ohmma_skipped == algo_stats.ohmma_skipped
        assert expansion.sets_skipped == algo_stats.sets_skipped >= 2
        assert expansion.stream.count(Opcode.BOHMMA_32321) == algo_stats.bohmma_issued
        assert expansion.stream.count(Opcode.POPC) == algo_stats.popc_issued

    def test_sparser_operands_issue_fewer_instructions(self, rng):
        def issued(expansion):
            # Predicated-off OHMMAs stay in the stream but are not issued.
            stream = expansion.stream
            return (
                stream.count(Opcode.POPC)
                + stream.count(Opcode.BOHMMA_32321)
                + expansion.ohmma_enabled
            )

        dense = expand_spwmma(np.ones((32, 16), dtype=bool), np.ones((16, 32), dtype=bool))
        sparse_a = random_sparse_matrix((32, 16), 0.2, rng)
        sparse_b = random_sparse_matrix((16, 32), 0.2, rng)
        sparse = expand_spwmma(sparse_a != 0, sparse_b != 0)
        assert issued(sparse) < issued(dense)
