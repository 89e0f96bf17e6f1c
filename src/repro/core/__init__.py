"""The paper's primary contribution: bitmap outer-product SpGEMM and SpCONV.

Modules:

* :mod:`repro.core.condense` — pushing non-zeros of a vector together
  (Figure 4c) and quantising condensed lengths to OHMMA granularity.
* :mod:`repro.core.outer_product` — multiply-value and multiply-bitmap
  primitives of one outer-product step (Figure 2c).
* :mod:`repro.core.merge` — gather–accumulate–scatter merge (Figure 7).
* :mod:`repro.core.spgemm_warp` — warp-level SpGEMM with OHMMA skipping
  (Figure 5).
* :mod:`repro.core.spgemm_device` — device-level tiled SpGEMM using the
  two-level bitmap (Figures 8 and 9).
* :mod:`repro.core.engine` / :mod:`repro.core.engine_blocked` — the
  bit-exact vectorized engine and the K-panel blocked engine, which the
  default ``backend="auto"`` runs at every shape.
* :mod:`repro.core.operands` — pre-encoded GEMM operands (encode once,
  multiply many times) shared by every functional engine, and
  ``device_stats_from_operands``, the one instruction and traffic
  counter.
* :mod:`repro.core.im2col_dense` / ``im2col_outer`` / ``im2col_csr`` /
  ``im2col_bitmap`` — the four im2col variants compared in Table III and
  Figure 10/11.
* :mod:`repro.core.spconv` — dual-side sparse convolution.
* :mod:`repro.core.api` — user-facing entry points.
"""

from repro.core.operands import EncodedOperand
from repro.core.api import (
    SparseMatrix,
    SpGemmResult,
    SpConvResult,
    spgemm,
    spgemm_batched,
    spconv,
    sparse_im2col,
)

__all__ = [
    "EncodedOperand",
    "SparseMatrix",
    "SpGemmResult",
    "SpConvResult",
    "spgemm",
    "spgemm_batched",
    "spconv",
    "sparse_im2col",
]
