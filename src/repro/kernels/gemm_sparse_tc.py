"""Vector-wise Sparse Tensor Core baseline [72] (single-side sparsity).

Zhu et al. prune the weight matrix vector-wise to a fixed ratio (up to
75%) and add offset registers so the Tensor Core's dot-product units only
multiply the surviving weights.  Activation sparsity is invisible to the
design.  Its latency is the dense Tensor-Core time scaled by the fraction
of weights kept, plus a constant decode / operand-shuffle overhead — the
combination the paper measures as a flat 1.86x over CUTLASS for
75%-pruned GEMMs (Figure 21).
"""

from __future__ import annotations

import numpy as np

from repro.hw.config import GpuConfig
from repro.hw.gpu import GpuTimingModel
from repro.hw.memory import TrafficBreakdown
from repro.hw.sparse_tc import vector_wise_sparse_tensor_core
from repro.kernels import calibration
from repro.kernels.base import KernelEstimate
from repro.utils.validation import check_positive, check_probability


class SparseTensorCoreGemm:
    """Single-side (weight-only) Sparse Tensor Core GEMM baseline."""

    method_name = "Sparse Tensor Core"

    def __init__(
        self,
        config: GpuConfig | None = None,
        efficiency: float = calibration.TENSOR_CORE_EFFICIENCY,
        element_bytes: int = 2,
        index_bytes: int = 1,
    ) -> None:
        self.timing_model = GpuTimingModel(config)
        self.hardware = vector_wise_sparse_tensor_core()
        self.efficiency = efficiency
        self.element_bytes = element_bytes
        self.index_bytes = index_bytes

    def estimate_from_sparsity(
        self, m: int, n: int, k: int, weight_sparsity: float
    ) -> KernelEstimate:
        """Latency for an M x N x K GEMM whose B operand is weight-pruned.

        Only the structured weight sparsity is exploited; the activation
        operand is processed densely regardless of its content.
        """
        check_positive(m, "m")
        check_positive(n, "n")
        check_positive(k, "k")
        check_probability(weight_sparsity, "weight_sparsity")
        exploited = self.hardware.exploited_sparsity(weight_sparsity)
        relative_time = self.hardware.relative_time(weight_sparsity)
        dense_compute = self.timing_model.dense_tensor_core_cycles(
            m, n, k, self.efficiency
        )
        compute = dense_compute * relative_time
        kept_fraction = 1.0 - exploited
        traffic = TrafficBreakdown(
            a_bytes=m * k * self.element_bytes,
            b_bytes=k * n * kept_fraction * self.element_bytes,
            metadata_bytes=k * n * kept_fraction * self.index_bytes,
            output_bytes=m * n * self.element_bytes,
        )
        timing = self.timing_model.time_kernel(
            compute, traffic, calibration.KERNEL_LAUNCH_OVERHEAD_CYCLES
        )
        return KernelEstimate(
            method=self.method_name,
            timing=timing,
            details={
                "weight_sparsity": weight_sparsity,
                "exploited_sparsity": exploited,
                "relative_time_vs_dense": relative_time,
                "traffic_bytes": traffic.total_bytes,
            },
        )

    def estimate(self, a: np.ndarray, b: np.ndarray) -> KernelEstimate:
        """Latency estimate from the actual operands (B is the weight side)."""
        a = np.asarray(a)
        b = np.asarray(b)
        m, k = a.shape
        n = b.shape[1]
        weight_sparsity = 1.0 - np.count_nonzero(b) / b.size
        return self.estimate_from_sparsity(m, n, k, weight_sparsity)
