"""Timed kernel models: the paper's baselines and the proposed design.

Every kernel model turns a workload description (matrix shapes and the
actual sparse operands, or a convolution layer specification) into a
:class:`repro.kernels.base.KernelEstimate` containing a latency estimate
on the modelled V100 plus the underlying instruction / traffic counts.

GEMM methods (Figure 21):

* :mod:`repro.kernels.gemm_dense` — CUTLASS-like dense Tensor-Core GEMM.
* :mod:`repro.kernels.gemm_cusparse` — cuSparse CSR SpGEMM on CUDA cores.
* :mod:`repro.kernels.gemm_sparse_tc` — vector-wise Sparse Tensor Core [72].
* :mod:`repro.kernels.gemm_dual_sparse` — the proposed bitmap outer-product
  dual-side SpGEMM.

Convolution methods (Figure 22): :mod:`repro.kernels.conv_methods`
implements Dense Explicit, Dense Implicit, Single Sparse Explicit,
Single Sparse Implicit and Dual Sparse Implicit on a common layer spec.

Table III's im2col comparison lives in :mod:`repro.kernels.im2col_cost`.
All calibration constants are documented in
:mod:`repro.kernels.calibration`.
"""
