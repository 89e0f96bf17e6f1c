"""Cost model of the proposed dual-side bitmap outer-product SpGEMM.

The model turns the exact statistics of
:func:`repro.core.operands.device_stats_from_operands` (or their
statistical expectation for synthetic sweeps) into a latency:

* **compute stream** — OHMMA and BOHMMA instructions issued at one per
  sub-core per cycle, at the same efficiency the dense baseline uses;
* **merge stream** — every non-zero partial product is one
  gather–accumulate–scatter access into the accumulation buffer, drained
  by the 128-way accumulator pipeline per sub-core at the operand
  collector's efficiency; the kernel is bound by the slower stream;
* **memory** — the bitmap-compressed operands plus the dense output.

With dense inputs the merge stream is the (slightly slower) bottleneck,
which reproduces the paper's observation that the design only pays off
once either operand is ≳25% sparse; with sparse inputs the issued OHMMA
count collapses and the speedup follows the quantised skipping of
Figure 5 plus the warp-bitmap tile skipping of Figure 9.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import binom

from repro.core.operands import device_stats_from_operands
from repro.core.spgemm_warp import WarpTileConfig
from repro.hw.config import GpuConfig
from repro.hw.gpu import GpuTimingModel
from repro.hw.memory import TrafficBreakdown
from repro.kernels import calibration
from repro.kernels.base import KernelEstimate
from repro.utils.tiling import ceil_div
from repro.utils.validation import check_positive, check_probability


class DualSparseGemm:
    """The proposed dual-side sparse Tensor Core SpGEMM."""

    method_name = "Dual-side Sparse Tensor Core"

    def __init__(
        self,
        config: GpuConfig | None = None,
        warp_config: WarpTileConfig | None = None,
        issue_efficiency: float = calibration.OHMMA_ISSUE_EFFICIENCY,
        merge_efficiency: float = calibration.MERGE_EFFICIENCY,
        element_bytes: int = 2,
    ) -> None:
        self.timing_model = GpuTimingModel(config)
        self.warp_config = warp_config or WarpTileConfig()
        self.issue_efficiency = issue_efficiency
        self.merge_efficiency = merge_efficiency
        self.element_bytes = element_bytes

    # ------------------------------------------------------------------ #
    # Core cost combination
    # ------------------------------------------------------------------ #
    def _estimate_from_counts(
        self,
        m: int,
        n: int,
        counts_ohmma: float,
        counts_bohmma: float,
        merge_accesses: float,
        a_bytes: float,
        b_bytes: float,
        extra_details: dict | None = None,
    ) -> KernelEstimate:
        """Combine instruction counts and traffic into a latency estimate."""
        config = self.timing_model.config
        issue_cycles = self.timing_model.ohmma_cycles(
            counts_ohmma + counts_bohmma, self.issue_efficiency
        )
        merge_rate = (
            config.num_sms
            * config.subcores_per_sm
            * calibration.MERGE_ACCUMULATORS_PER_SUBCORE
            * self.merge_efficiency
        )
        merge_cycles = merge_accesses / merge_rate
        compute_cycles = max(issue_cycles, merge_cycles)
        traffic = TrafficBreakdown(
            a_bytes=a_bytes,
            b_bytes=b_bytes,
            output_bytes=m * n * self.element_bytes,
        )
        timing = self.timing_model.time_kernel(
            compute_cycles, traffic, calibration.KERNEL_LAUNCH_OVERHEAD_CYCLES
        )
        details = {
            "ohmma_issued": counts_ohmma,
            "bohmma_issued": counts_bohmma,
            "merge_accesses": merge_accesses,
            "issue_cycles": issue_cycles,
            "merge_cycles": merge_cycles,
            "bound_stream": "issue" if issue_cycles >= merge_cycles else "merge",
            "traffic_bytes": traffic.total_bytes,
        }
        if extra_details:
            details.update(extra_details)
        return KernelEstimate(
            method=self.method_name, timing=timing, details=details
        )

    # ------------------------------------------------------------------ #
    # Exact path (from actual operands)
    # ------------------------------------------------------------------ #
    def estimate(self, a: np.ndarray, b: np.ndarray) -> KernelEstimate:
        """Latency estimate from the actual operand matrices.

        Instruction counts and compressed bytes are exact (the closed-form
        statistics over the real zero patterns, equal to the reference
        loop's), so warp-tile imbalance effects such as Figure 6 are
        captured.
        """
        stats = device_stats_from_operands(
            a, b, self.warp_config, element_bytes=self.element_bytes
        )
        return self._estimate_from_counts(
            m=np.shape(a)[0],
            n=np.shape(b)[1],
            counts_ohmma=stats.warp.ohmma_issued,
            counts_bohmma=stats.warp.bohmma_issued,
            merge_accesses=stats.warp.merge.accumulations,
            a_bytes=stats.a_bytes_compressed,
            b_bytes=stats.b_bytes_compressed,
            extra_details={
                "instruction_speedup": stats.instruction_speedup,
                "warp_tile_pairs_skipped": stats.warp_tile_pairs_skipped,
                "warp_tile_pairs_total": stats.warp_tile_pairs_total,
            },
        )

    # ------------------------------------------------------------------ #
    # Statistical path (from shape + sparsity)
    # ------------------------------------------------------------------ #
    def estimate_from_sparsity(
        self, m: int, n: int, k: int, a_sparsity: float, b_sparsity: float
    ) -> KernelEstimate:
        """Latency estimate assuming uniformly random non-zero placement.

        Expected instruction counts are computed with binomial
        expectations over the warp-tile segments; this is the fast path
        used by the Figure 21 sweep at the paper's 4096x4096x4096 size.
        """
        check_positive(m, "m")
        check_positive(n, "n")
        check_positive(k, "k")
        check_probability(a_sparsity, "a_sparsity")
        check_probability(b_sparsity, "b_sparsity")
        cfg = self.warp_config
        a_density = 1.0 - a_sparsity
        b_density = 1.0 - b_sparsity

        n_row_tiles = ceil_div(m, cfg.tm)
        n_col_tiles = ceil_div(n, cfg.tn)

        expected_a_groups = self._expected_groups(cfg.tm, a_density, cfg.ohmma_m)
        expected_b_groups = self._expected_groups(cfg.tn, b_density, cfg.ohmma_n)
        prob_a_active = 1.0 - float(binom.pmf(0, cfg.tm, a_density))
        prob_b_active = 1.0 - float(binom.pmf(0, cfg.tn, b_density))

        ohmma = k * (n_row_tiles * expected_a_groups) * (n_col_tiles * expected_b_groups)
        bohmma = k * (n_row_tiles * prob_a_active) * (n_col_tiles * prob_b_active)
        merge_accesses = float(m) * n * k * a_density * b_density

        a_nnz = m * k * a_density
        b_nnz = k * n * b_density
        a_bytes = a_nnz * self.element_bytes + m * k / 8.0
        b_bytes = b_nnz * self.element_bytes + k * n / 8.0
        dense_ohmma = n_row_tiles * n_col_tiles * k * cfg.ohmma_per_set
        return self._estimate_from_counts(
            m=m,
            n=n,
            counts_ohmma=ohmma,
            counts_bohmma=bohmma,
            merge_accesses=merge_accesses,
            a_bytes=a_bytes,
            b_bytes=b_bytes,
            extra_details={
                "instruction_speedup": dense_ohmma / ohmma if ohmma else float("inf"),
                "expected_a_groups": expected_a_groups,
                "expected_b_groups": expected_b_groups,
            },
        )

    @staticmethod
    def _expected_groups(segment: int, density: float, granularity: int) -> float:
        """E[ceil(X / granularity)] for X ~ Binomial(segment, density).

        Uses the identity ``ceil(X/g) = sum_{t>=0} 1[X > t*g]``.
        """
        groups = ceil_div(segment, granularity)
        expectation = 0.0
        for threshold in range(groups):
            expectation += 1.0 - float(binom.cdf(threshold * granularity, segment, density))
        return expectation
