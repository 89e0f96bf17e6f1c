"""Calibration constants of the kernel cost models.

The paper's baselines are production libraries (CUTLASS, cuDNN, cuSparse)
and a prior accelerator ([72]) that cannot be executed here, so their
models are calibrated against the anchor numbers the paper itself
reports.  Each constant below documents its anchor.  The proposed
design's model shares the same machine description and efficiency
constants, so relative comparisons remain internally consistent.
"""

from __future__ import annotations

#: Fraction of peak Tensor-Core throughput a well-tuned dense GEMM
#: sustains on large matrices (CUTLASS reaches roughly 70-85% of peak).
TENSOR_CORE_EFFICIENCY = 0.75

#: Fraction of the peak OHMMA issue rate the proposed SpGEMM sustains.
#: Kept equal to the dense efficiency so the comparison is conservative.
OHMMA_ISSUE_EFFICIENCY = 0.75

#: Accumulators drained per sub-core per cycle by the 128-way
#: multiply-accumulate pipeline in sparse mode (Section V-B2).
MERGE_ACCUMULATORS_PER_SUBCORE = 128

#: Efficiency of the sparse-mode accumulation path: bank conflicts that
#: the operand collector cannot hide reduce the effective drain rate.
MERGE_EFFICIENCY = 0.75

#: Fraction of peak CUDA-core throughput irregular sparse kernels reach.
CUDA_CORE_EFFICIENCY = 0.4

#: cuSparse CSR SpGEMM model: fixed per-call overhead (format handling,
#: multiple passes, load imbalance) in microseconds for a 4096x4096
#: output, plus a per-scalar-product cost in nanoseconds.  Calibrated so
#: that, with matrix B at 99% sparsity, cuSparse is ~1.75x slower than
#: CUTLASS at 90% A sparsity and ~1.67x faster at 99.9% A sparsity
#: (Section VI-C) under this repository's CUTLASS model.
CUSPARSE_BASE_OVERHEAD_US_AT_4096 = 860.0
CUSPARSE_NS_PER_PRODUCT = 0.025

#: Weight-only Sparse Tensor Core [72]: constant decode / operand-shuffle
#: overhead as a fraction of the dense execution time.  Calibrated so a
#: 75%-pruned GEMM is 1.86x faster than CUTLASS (Figure 21):
#: 1 / (0.25 + overhead) = 1.86.
SPARSE_TC_DECODE_OVERHEAD = 0.2876

#: im2col cost weights (arbitrary units per operation), calibrated
#: against Table III: a dense element copy costs SEQ_ACCESS each for the
#: read and the write; a CSR non-zero access requires two data-dependent
#: global reads; a bitmap non-zero access is a local (L1 / register file)
#: gather; bit-level register operations are cheap.
IM2COL_SEQ_ACCESS_COST = 1.0
IM2COL_GLOBAL_RANDOM_READ_COST = 100.0
IM2COL_LOCAL_GATHER_COST = 6.8
IM2COL_BIT_OP_COST = 0.5

#: All three ATen implementations materialise the lowered matrix densely;
#: the zero-filled output costs a write plus the zero-initialisation pass,
#: i.e. two sequential accesses per lowered element.  This is the floor
#: that keeps the sparse variants near 1x at extreme sparsity (Table III).
IM2COL_OUTPUT_MATERIALIZE_COST = 2.0

#: Fixed kernel-launch overhead (cycles) charged per GPU kernel.
KERNEL_LAUNCH_OVERHEAD_CYCLES = 2000.0
