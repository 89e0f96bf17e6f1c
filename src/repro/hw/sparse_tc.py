"""Behavioural model of the single-side sparse Tensor Core baseline.

The evaluation's single-side (weight-only) sparse Tensor Core is the
**vector-wise Sparse Tensor Core** of Zhu et al. [72], which prunes each
weight vector to a fixed ratio (up to 75%) and uses CSR-like offsets to
feed the dot-product units.

It exploits only the statically pruned operand: activation sparsity is
invisible to it.  Its throughput model is a fixed decode/imbalance
overhead on top of the ideal ``1 / (1 - exploited sparsity)`` speedup,
calibrated so the design reproduces the constant 1.86x GEMM speedup over
CUTLASS that the paper measures (Figure 21).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class SingleSideSparseTensorCore:
    """Generic single-side (weight-sparsity-only) sparse Tensor Core.

    Attributes:
        supported_ratios: structured pruning ratios the hardware supports;
            the largest ratio not exceeding the actual weight sparsity is
            the one exploited.
        decode_overhead: fraction of the dense execution time spent on
            metadata decode, operand shuffling and load imbalance,
            independent of sparsity.
    """

    supported_ratios: tuple[float, ...]
    decode_overhead: float

    def exploited_sparsity(self, weight_sparsity: float) -> float:
        """Largest supported pruning ratio not exceeding the weight sparsity."""
        check_probability(weight_sparsity, "weight_sparsity")
        usable = [r for r in self.supported_ratios if r <= weight_sparsity + 1e-9]
        return max(usable) if usable else 0.0

    def relative_time(self, weight_sparsity: float) -> float:
        """Execution time relative to the dense Tensor Core (lower is better)."""
        exploited = self.exploited_sparsity(weight_sparsity)
        return (1.0 - exploited) + self.decode_overhead

    def speedup_over_dense(self, weight_sparsity: float) -> float:
        """Speedup over the dense Tensor Core for a given weight sparsity."""
        relative = self.relative_time(weight_sparsity)
        if relative <= 0:
            raise ConfigError("relative time must be positive")
        return 1.0 / relative


def vector_wise_sparse_tensor_core() -> SingleSideSparseTensorCore:
    """The vector-wise Sparse Tensor Core of Zhu et al. [72].

    Supports vector-wise pruning ratios of 25/50/75%; the decode overhead
    is :data:`repro.kernels.calibration.SPARSE_TC_DECODE_OVERHEAD`,
    calibrated so that a 75%-pruned GEMM runs 1.86x faster than the dense
    CUTLASS baseline, matching the constant speedup the paper reports in
    Figure 21.
    """
    # Imported here: the repro.kernels package imports this module.
    from repro.kernels.calibration import SPARSE_TC_DECODE_OVERHEAD

    return SingleSideSparseTensorCore(
        supported_ratios=(0.25, 0.5, 0.75),
        decode_overhead=SPARSE_TC_DECODE_OVERHEAD,
    )
