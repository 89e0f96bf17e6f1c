"""Vectorized functional execution engine for the device-level SpGEMM.

:func:`repro.core.spgemm_device.device_spgemm` historically walked every
(warp-tile pair, reduction step) in Python, which capped the functional
path at a few thousand elements per side.  This module provides the
NumPy-vectorized replacement: the numeric product is computed with
blocked dense math (rank-1 updates in reduction order, so rounding is
bit-identical to the reference loop), while the full
:class:`~repro.core.spgemm_device.DeviceStats` comes in closed form from
:func:`repro.core.operands.device_stats_from_operands`, the library's one
statistics function.

Every cross-operand statistic factors into dot products of per-side
per-``k`` vectors, which an :class:`~repro.core.operands.EncodedOperand`
caches for the lifetime of a serving session.  Operands may therefore
arrive either dense or pre-encoded; the engine computes identical
results (and statistics) in both cases.

For Figure 21/22-sized shapes the K-panel blocked engine
(:mod:`repro.core.engine_blocked`) replaces the per-step rank-1 loop
with one BLAS matmul per K-panel; its statistics come from the same
function.

The engine is cross-checked against the reference loop (kept behind
``backend="reference"``) in ``tests/core/test_engine.py``: numeric output
and every statistics field — instruction counts, merge traffic, tile
skips, compressed footprints — match exactly, including on
non-tile-aligned shapes and empty matrices.

Why the numerics are bit-identical
----------------------------------

The reference path accumulates, for every output element ``(i, j)``, the
partial products ``a[i, k] * b[k, j]`` one ``k`` at a time in increasing
``k`` order (k-tiles are visited in order and each warp tile iterates its
steps in order).  The engine performs the same IEEE-754 double-precision
multiply-then-add sequence as a vectorized rank-1 update per reduction
step; adding the zero products the reference skips is exact (``x + 0.0
== x`` for finite ``x``), so both paths round identically.  Because
every output element receives its products independently of all other
rows and columns, the same argument makes the engine *fold-safe*: rows
(or columns) of a batch-stacked operand produce bit-identical results
to separate per-slice runs (the inference sessions of
:mod:`repro.nn.session` rely on this).
"""

from __future__ import annotations

import numpy as np

from repro.core.operands import as_gemm_operand, device_stats_from_operands
from repro.core.spgemm_warp import WarpTileConfig


def vectorized_numeric_product(
    a: np.ndarray,
    b: np.ndarray,
    a_col_nnz: "np.ndarray | None" = None,
    b_row_nnz: "np.ndarray | None" = None,
    a_finite: "bool | None" = None,
    b_finite: "bool | None" = None,
) -> np.ndarray:
    """``a @ b`` in float64 with reference-identical rounding.

    One vectorized rank-1 update per reduction step, in increasing-``k``
    order, reproduces the exact multiply/add sequence of the per-tile
    merge loop (see the module docstring).  Steps whose A column or B row
    is entirely zero contribute nothing and are skipped outright.

    The optional ``*_nnz`` / ``*_finite`` arguments let a caller holding
    pre-encoded operands (:class:`~repro.core.operands.EncodedOperand`)
    skip the per-call reductions; passing them never changes the result.
    """
    m_dim, k_dim = a.shape
    n_dim = b.shape[1]
    a64 = a.astype(np.float64, copy=False)
    b64 = b.astype(np.float64, copy=False)
    output = np.zeros((m_dim, n_dim), dtype=np.float64)
    if a_col_nnz is None:
        a_col_nnz = np.count_nonzero(a64, axis=0)
    if b_row_nnz is None:
        b_row_nnz = np.count_nonzero(b64, axis=1)
    # The dense fast path multiplies zero positions too; 0.0 * inf = NaN
    # would diverge from the reference (which never forms products with
    # a zero operand), so non-finite inputs always take the condensed path.
    if a_finite is None:
        a_finite = bool(np.isfinite(a64).all())
    if b_finite is None:
        b_finite = bool(np.isfinite(b64).all())
    all_finite = a_finite and b_finite
    dense_cutoff = 0.25 * m_dim * n_dim
    for k in np.flatnonzero((a_col_nnz > 0) & (b_row_nnz > 0)):
        if all_finite and a_col_nnz[k] * b_row_nnz[k] > dense_cutoff:
            # Near-dense step: a full rank-1 update is cheaper than
            # gathering; the extra zero additions round identically.
            output += np.outer(a64[:, k], b64[k, :])
        else:
            # Condense the step: only (non-zero row, non-zero column)
            # positions receive a partial product, exactly as the merge
            # loop scatters them.
            rows = np.flatnonzero(a64[:, k])
            cols = np.flatnonzero(b64[k, :])
            output[np.ix_(rows, cols)] += np.outer(a64[rows, k], b64[k, cols])
    return output


def vectorized_device_spgemm(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
) -> "DeviceSpGemmResult":
    """Vectorized functional device-level SpGEMM.

    Drop-in replacement for the reference loop of
    :func:`repro.core.spgemm_device.device_spgemm`: same numeric output
    (bit-identical) and the same :class:`DeviceStats`, computed orders of
    magnitude faster.  Either operand may be a dense ndarray or any
    pre-encoded type accepted by
    :func:`repro.core.operands.as_gemm_operand`.  ``collect_positions``
    is not supported here — the per-step accumulation-buffer replay is
    inherently sequential, so the dispatcher routes that case to the
    reference loop.
    """
    from repro.core.spgemm_device import DeviceSpGemmResult

    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    stats = device_stats_from_operands(
        a_op, b_op, config, element_bytes=element_bytes
    )
    output = vectorized_numeric_product(
        a_op.dense,
        b_op.dense,
        a_col_nnz=a_op.k_nnz,
        b_row_nnz=b_op.k_nnz,
        a_finite=a_op.all_finite,
        b_finite=b_op.all_finite,
    )
    return DeviceSpGemmResult(output=output, stats=stats)
