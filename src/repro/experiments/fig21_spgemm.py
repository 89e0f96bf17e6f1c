"""Figure 21 — SpGEMM execution time versus operand sparsity.

Workload: a 4096x4096x4096 GEMM.  Matrix A's sparsity sweeps 0-99.9%;
matrix B's sparsity takes one of several fixed values.  Compared methods:
CUTLASS (dense), cuSparse (B fixed at 99%, A >= 90% only, as in the
paper), the vector-wise Sparse Tensor Core [72] and our dual-side sparse
Tensor Core.

On top of the modelled sweep, one Figure 21-sized point is *executed*
numerically: a ``numeric_size^3`` (2048^3 by default) SpGEMM runs
through the blocked engine (:mod:`repro.core.engine_blocked`)
and contributes a row with its exact measured instruction counts.
"""

from __future__ import annotations

import numpy as np

from repro.hw.config import GpuConfig, V100_CONFIG
from repro.kernels.gemm_cusparse import CusparseGemm
from repro.kernels.gemm_dense import CutlassGemm
from repro.kernels.gemm_dual_sparse import DualSparseGemm
from repro.kernels.gemm_sparse_tc import SparseTensorCoreGemm

#: Matrix A sparsity sweep (fraction of zeros).
A_SPARSITY_POINTS = (0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
#: (A, B) sparsity of the numerically *executed* SpGEMM point.
NUMERIC_SPARSITY = (0.7, 0.7)
#: Matrix B sparsity curves of the figure.
B_SPARSITY_POINTS = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99, 0.999)
#: cuSparse is only reported for A sparsity >= 90% with B at 99%.
CUSPARSE_A_POINTS = (0.9, 0.95, 0.99, 0.999)

#: Paper anchor observations used for shape comparison.
PAPER_ANCHORS = {
    "sparse_tc_speedup": 1.86,
    "ours_a0_b99_speedup": 13.4,
    "ours_a999_b99_speedup": 23.0,
    "ours_break_even_a_sparsity_b_dense": 0.25,
    "cusparse_a999_speedup": 1.67,
}


def run_fig21(
    size: int = 4096,
    config: GpuConfig | None = None,
    numeric_size: int = 2048,
    seed: int = 2021,
) -> list[dict]:
    """Reproduce the Figure 21 sweep.

    Args:
        size: GEMM dimension (M = N = K); 4096 matches the paper, smaller
            values give quicker runs with the same qualitative shape.
        config: optional GPU configuration override.
        numeric_size: dimension of the additional *executed* SpGEMM
            point: a ``numeric_size^3`` product at
            :data:`NUMERIC_SPARSITY` is actually run through the
            blocked engine and reported with its exact (not modelled)
            instruction counts.  ``0`` disables the point.
        seed: RNG seed for the executed point's random operands.

    Returns:
        One row per (method, A sparsity, B sparsity) with the modelled
        execution time and the speedup over the dense CUTLASS baseline,
        plus the executed numeric point (``ours-functional``).
    """
    cutlass = CutlassGemm(config)
    cusparse = CusparseGemm(config)
    sparse_tc = SparseTensorCoreGemm(config)
    ours = DualSparseGemm(config)

    baseline = cutlass.estimate_from_shape(size, size, size)
    rows = [
        {
            "method": baseline.method,
            "a_sparsity": 0.0,
            "b_sparsity": 0.0,
            "time_us": baseline.time_us,
            "speedup_vs_cutlass": 1.0,
        }
    ]

    # Sparse Tensor Core: a single flat line (75% vector-wise pruning).
    stc = sparse_tc.estimate_from_sparsity(size, size, size, weight_sparsity=0.75)
    rows.append(
        {
            "method": stc.method,
            "a_sparsity": 0.0,
            "b_sparsity": 0.75,
            "time_us": stc.time_us,
            "speedup_vs_cutlass": baseline.time_us / stc.time_us,
        }
    )

    for a_sparsity in CUSPARSE_A_POINTS:
        estimate = cusparse.estimate_from_sparsity(
            size, size, size, a_sparsity, b_sparsity=0.99
        )
        rows.append(
            {
                "method": estimate.method,
                "a_sparsity": a_sparsity,
                "b_sparsity": 0.99,
                "time_us": estimate.time_us,
                "speedup_vs_cutlass": baseline.time_us / estimate.time_us,
            }
        )

    for b_sparsity in B_SPARSITY_POINTS:
        for a_sparsity in A_SPARSITY_POINTS:
            estimate = ours.estimate_from_sparsity(
                size, size, size, a_sparsity, b_sparsity
            )
            rows.append(
                {
                    "method": estimate.method,
                    "a_sparsity": a_sparsity,
                    "b_sparsity": b_sparsity,
                    "time_us": estimate.time_us,
                    "speedup_vs_cutlass": baseline.time_us / estimate.time_us,
                }
            )

    if numeric_size:
        # The executed (not modelled) point: run a numeric_size^3 SpGEMM
        # through the blocked engine and convert its *exact*
        # issued-OHMMA count to an issue-limited time.  Feasible at
        # Figure 21 sizes (>= 2048^3) only since the blocked engine.
        from repro.core.spgemm_device import device_spgemm
        from repro.sparsity.generators import random_sparse_matrix

        gpu = config or V100_CONFIG
        rng = np.random.default_rng(seed)
        a_sparsity, b_sparsity = NUMERIC_SPARSITY
        a = random_sparse_matrix(
            (numeric_size, numeric_size), 1.0 - a_sparsity, rng
        )
        b = random_sparse_matrix(
            (numeric_size, numeric_size), 1.0 - b_sparsity, rng
        )
        executed = device_spgemm(a, b, backend="blocked")
        issue_cycles = (
            executed.stats.warp.ohmma_issued / gpu.ohmma_slots_per_cycle
        )
        time_us = gpu.cycles_to_us(issue_cycles)
        numeric_baseline = cutlass.estimate_from_shape(
            numeric_size, numeric_size, numeric_size
        )
        rows.append(
            {
                "method": f"ours-functional ({numeric_size}^3 executed)",
                "a_sparsity": a_sparsity,
                "b_sparsity": b_sparsity,
                "time_us": round(time_us, 4),
                "speedup_vs_cutlass": numeric_baseline.time_us / time_us,
            }
        )
    return rows
