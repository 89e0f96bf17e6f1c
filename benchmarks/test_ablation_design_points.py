"""Ablation benchmarks for the paper's design choices.

Three ablations:

* warp-tile / accumulation-buffer size (Section III-B3's constraint),
* the two-level bitmap's warp-level skip (Figure 9) on clustered weights,
* the operand-collector depth of the accumulation buffer (Figure 19).
"""

import numpy as np

from repro.core.operands import device_stats_from_operands
from repro.core.spgemm_warp import WarpTileConfig
from repro.hw.accumulation_buffer import AccumulationBuffer, AccumulationBufferConfig
from repro.pruning.movement import block_movement_prune
from repro.sparsity.generators import random_sparse_matrix


def test_ablation_warp_tile_size(one_shot):
    """Larger warp tiles skip more, at quadratically growing buffer cost."""
    rng = np.random.default_rng(5)
    a = random_sparse_matrix((256, 256), 0.35, rng)
    b = random_sparse_matrix((256, 256), 0.15, rng)

    def sweep():
        return {
            tile: device_stats_from_operands(
                a, b, WarpTileConfig(tm=tile, tn=tile)
            ).instruction_speedup
            for tile in (16, 32, 64)
        }

    speedups = one_shot(sweep)
    assert speedups[16] <= speedups[32] <= speedups[64]
    assert speedups[32] > 1.5


def test_ablation_two_level_bitmap_on_clustered_weights(one_shot):
    """Whole-warp skipping only pays off when zeros are clustered."""
    rng = np.random.default_rng(6)
    dense_values = rng.uniform(0.5, 1.5, size=(512, 512))
    clustered = block_movement_prune(dense_values, 0.9, block=32)
    unstructured = np.where(rng.random((512, 512)) >= 0.9, dense_values, 0.0)
    activations = rng.uniform(0.5, 1.5, size=(512, 512))

    def sweep():
        return (
            device_stats_from_operands(clustered, activations),
            device_stats_from_operands(unstructured, activations),
        )

    clustered_stats, unstructured_stats = one_shot(sweep)
    assert clustered_stats.warp_tile_pairs_skipped > 0
    assert unstructured_stats.warp_tile_pairs_skipped == 0
    assert (
        clustered_stats.instruction_speedup > unstructured_stats.instruction_speedup
    )


def test_ablation_operand_collector_depth(one_shot):
    """Deeper collector windows hide more bank conflicts."""
    rng = np.random.default_rng(7)
    batches = [rng.integers(0, 1024, size=64) for _ in range(64)]

    def sweep():
        results = {}
        for depth in (1, 2, 4, 8):
            buffer = AccumulationBuffer(AccumulationBufferConfig(collector_depth=depth))
            results[depth] = buffer.sparse_mode_cycles(batches).cycles
        return results

    cycles = one_shot(sweep)
    assert cycles[8] <= cycles[4] <= cycles[2] <= cycles[1]
    assert cycles[8] < cycles[1]
