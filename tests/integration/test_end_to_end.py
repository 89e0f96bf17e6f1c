"""End-to-end integration tests across the library's layers."""

import numpy as np
import pytest

from repro import SparseMatrix, spconv, spgemm
from repro.core.reference import reference_conv2d, reference_gemm
from repro.core.operands import device_stats_from_operands
from repro.hw.warp import WarpExecutor
from repro.isa.wmma import expand_spwmma
from repro.kernels.gemm_dual_sparse import DualSparseGemm
from repro.nn.activations import relu
from repro.pruning.agp import agp_prune
from repro.pruning.movement import block_movement_prune
from repro.sparsity.generators import activation_like_matrix, random_sparse_matrix


class TestPrunedGemmPipeline:
    """Prune -> encode -> SpGEMM -> verify -> cost model, in one flow."""

    def test_agp_pruned_linear_layer(self, rng):
        weights = agp_prune(rng.standard_normal((128, 96)), final_sparsity=0.85)
        activations = activation_like_matrix((64, 128), sparsity=0.5, rng=rng)

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
    """The algorithm-level counters, the ISA expansion and the warp executor
    must tell the same story for the same operands."""

    def test_counts_agree_across_layers(self, rng):
        a_tile = random_sparse_matrix((32, 16), 0.3, rng)
        b_tile = random_sparse_matrix((16, 32), 0.5, rng)

        from repro.core.spgemm_warp import warp_spgemm

        _, algo_stats = warp_spgemm(a_tile, b_tile)
        expansion = expand_spwmma(a_tile != 0, b_tile != 0)
        executed = WarpExecutor().run(expansion.stream)

        from repro.isa.instructions import Opcode

        assert executed.by_opcode[Opcode.OHMMA_8161] == algo_stats.ohmma_issued
        assert executed.skipped == algo_stats.ohmma_skipped
        assert executed.by_opcode.get(Opcode.BOHMMA_32321, 0) == algo_stats.bohmma_issued

    def test_sparser_operands_need_fewer_cycles(self, rng):
        dense_a = np.ones((32, 16))
        dense_b = np.ones((16, 32))
        sparse_a = random_sparse_matrix((32, 16), 0.2, rng)
        sparse_b = random_sparse_matrix((16, 32), 0.2, rng)

        dense_cycles = WarpExecutor().run(
            expand_spwmma(dense_a != 0, dense_b != 0).stream
        ).total_cycles
        sparse_cycles = WarpExecutor().run(
            expand_spwmma(sparse_a != 0, sparse_b != 0).stream
        ).total_cycles
        assert sparse_cycles < dense_cycles
