"""Blocked functional SpGEMM engine — the default at every shape.

The vectorized engine (:mod:`repro.core.engine`) replays the condensed
outer-product semantics literally: one Python-level rank-1 update per
non-empty reduction step.  That is bit-identical to the reference loop
but still O(K) interpreter iterations, which caps Figure 21/22-sized
numeric SpGEMMs (a 2048^3 product spends seconds in the per-k loop).

This module applies the blocking the paper's thread-block tiling
(Figures 8-9) already describes.  A reduction step is *live* when its A
column and its B row both hold at least one non-zero — the same per-k
occupancy the warp-bitmap counts expose.  Every BLAS call goes through
one product, ``out[rows] = A[rows, steps] @ B[steps]`` over a list of
live steps, run as consecutive matmuls of at most
:data:`MAX_PRODUCT_STEPS` steps in ascending-k order: the first writes
``out``, each later one adds through one scratch array.  A contiguous
run of steps is a slice of the operands; any other run is one gather.
Dead steps never reach a matmul.  The product is called in one of two
ways:

Whole matrix
    Once, with all rows of A and every live step.  When M, A's row
    count (OH·OW for a conv layer), is a multiple of
    :data:`TRANSPOSED_ROW_MULTIPLE`, it runs the transposed product
    ``out.T = B.T @ A.T`` into a C-ordered (N, M) buffer and returns
    that buffer's transpose, so a conv layer's output reshapes to a
    C-contiguous (C, H, W) map.  BLAS multiplies a session's
    column-major lowered A faster from that side: per image on one
    thread, the conv layers of VGG-16, ResNet-18 and Mask R-CNN took
    1117, 132 and 284 ms as ``A @ B`` and 871, 110 and 240 ms under
    this rule (benchmark scale, sums of per-layer medians of 5,
    OpenBLAS 0.3.31 on a 2-vCPU host).  Any other M runs ``A @ B``;
    the rule is what keeps the bytes independent of the BLAS thread
    count (below).

Warp tiles
    Once per row tile of A (``WarpTileConfig.tm`` rows, one warp tile
    high), with only the live steps where that tile holds a non-zero.
    A warp tile whose A side is empty issues nothing, as the two-level
    bitmap lets the hardware skip it (Section VI-D); its output rows
    stay zero.  The per-tile step lists come from the segment occupancy
    of A's :class:`~repro.core.operands.OperandSummary`.

The way is picked by :func:`tile_share` — the share of (row tile, live
step) pairs where A's tile is non-empty, an O(K) dot product over the
summary the same call's statistics already built — against
:data:`TILE_PATH_MAX_SHARE`.  Block-pruned weights (RNN, BERT) sit at
0.05-0.10 and take the warp tiles; dense-ish conv activations and
unstructured operands sit near 1 and take the whole matrix.

Either operand may be a plain ndarray or a pre-encoded
:class:`~repro.core.operands.EncodedOperand`, which caches its per-k
non-zero counts, its float64 view and its summary.  Nothing else is
cached: every block is sliced or gathered from the float64 operands at
multiply time, so cached and uncached runs feed the same arrays to the
same matmuls and stay bit-identical (asserted in
``tests/core/test_encoded_operands.py``).

Statistics are *not* re-derived: :func:`blocked_device_spgemm` composes
the same per-operand summaries
(:func:`repro.core.operands.device_stats_from_operands`) the vectorized
engine uses, so every :class:`DeviceStats` / ``WarpStats`` field stays
bit-identical to the reference backend by construction.

Accumulation-order guarantees
-----------------------------

Chunks of live steps accumulate in ascending-k order, but *within* one
matmul the multiply-add order is whatever the BLAS kernel picks.
Consequently:

* on integer-valued data (all products and partial sums exactly
  representable in float64) the output is exactly equal to the reference
  loop — addition of exactly-representable values is associative,
* on general float data the result may differ from the reference loop in
  the last bits; both are correct float64 evaluations of the same sum
  and agree to well within 2 float32 ulps (asserted by the Hypothesis
  parity suite in ``tests/core/test_engine_blocked.py``),
* the output bytes did not depend on the BLAS thread count where that
  was measured (1 vs 2 threads, OpenBLAS 0.3.31, SkylakeX kernel)
  when two conditions held: no matmul summed more than
  :data:`MAX_PRODUCT_STEPS` steps, and the matmul's output had a
  contiguous dimension that is a multiple of 8.  A longer reduction
  broke it: ``A @ B`` with an F-ordered A at M in {32, 49, 784} gave
  the same bytes at 1 and 2 threads for every reduction length up to
  384, and different bytes for most longer lengths that are not a
  multiple of 32, the first at 385 (B 128 or more columns wide).  That
  fits the one- and multi-threaded drivers splitting a reduction
  longer than a 384-step block at different points (not checked
  against the OpenBLAS source).  Within 256 steps the output's
  contiguous dimension decided it: ``A @ B`` at M = 784, K = 256,
  N = 250 differed in 20 elements, and at M = 950 with N = 128 or 136
  it did not; one 256-step ``B.T @ A.T`` of dense values differed for
  each of the 88 values of M in 900-999 that are not a multiple of 8
  and for none of the 12 that are.  The whole-matrix path's
  orientation rule gives every product with M or N a multiple of 8 such
  an output.  A whole-matrix product with neither runs ``A @ B`` as
  before, and so does every warp tile; where N is not a multiple of 8
  their bytes can depend on the thread count (a 32-row tile of 256
  steps differed at N = 250).  Other thread counts and other builds are
  unverified; wherever the suite runs, ``TestBlasThreadCount`` in
  ``tests/core/test_engine_blocked.py`` pins that a one-thread cap
  changes no byte of every zoo layer shape at benchmark scale, on two
  images, and of whole-matrix products on either side of the rule,
* non-finite operands (inf/NaN) always fall back to the per-step
  condensed path, because a dense product would form ``0 * inf = NaN``
  partials the condensed hardware never evaluates.  The fallback is
  bit-identical to the reference loop, so non-finite parity stays
  exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.operands import (
    OperandSummary,
    as_gemm_operand,
    device_stats_from_operands,
)
from repro.core.spgemm_warp import WarpTileConfig

#: Live reduction steps one matmul sums at most: sixteen of the paper's
#: 16-step warp k-tiles, and below 385, the shortest reduction OpenBLAS
#: 0.3.31 was measured to sum differently at 1 and 2 threads.  The bound
#: alone does not make a product's bytes independent of the thread
#: count; its output's contiguous dimension must also be a multiple of
#: 8 (module docstring).
MAX_PRODUCT_STEPS = 256

#: The whole-matrix path runs transposed when A's row count is a
#: multiple of this: its output's contiguous dimension is then M, and
#: OpenBLAS 0.3.31 gave the same bytes at 1 and 2 threads for a
#: ≤256-step product exactly when that dimension was a multiple of 8
#: (module docstring).
TRANSPOSED_ROW_MULTIPLE = 8

#: :func:`tile_share` below which the warp-tile path runs.  For a
#: block-pruned 4096 x 2048 A times a dense 2048 x 1024 B on a 2-vCPU
#: host the warp-tile path measured faster up to a share of 0.25-0.33,
#: depending on B's dtype and layout (tables under "Warp-tile skip" in
#: ``docs/architecture.md``).
TILE_PATH_MAX_SHARE = 0.3


def tile_share(summary: OperandSummary, alive: np.ndarray) -> float:
    """Share of (row tile, live step) pairs where A's row tile is non-empty.

    The warp-tile path multiplies exactly these pairs, the whole-matrix
    path every row tile of every live step, so this is the warp-tile
    path's share of the whole-matrix path's work.  O(K) over A's
    summary; ``alive`` must hold at least one live step.
    """
    live_tiles = int(summary.nonempty_per_k[alive].sum())
    return live_tiles / (summary.n_segments * int(np.count_nonzero(alive)))


def _live_step_product(
    a64: np.ndarray,
    b64: np.ndarray,
    rows: slice,
    steps: np.ndarray,
    output: np.ndarray,
) -> None:
    """``output[rows] = a64[rows, steps] @ b64[steps]``, chunked by step.

    ``steps`` is a non-empty ascending array of live steps.  Each matmul
    sums at most :data:`MAX_PRODUCT_STEPS` of them, in ascending-k
    order; the first writes ``output[rows]``, later ones add through one
    scratch array.
    """
    target = output[rows]
    scratch = None
    for start in range(0, steps.size, MAX_PRODUCT_STEPS):
        ks = steps[start : start + MAX_PRODUCT_STEPS]
        if ks[-1] - ks[0] + 1 == ks.size:
            ks = slice(ks[0], ks[-1] + 1)
        if start == 0:
            np.matmul(a64[rows, ks], b64[ks], out=target)
            continue
        if scratch is None:
            scratch = np.empty_like(target)
        np.matmul(a64[rows, ks], b64[ks], out=scratch)
        target += scratch


def blocked_numeric_product(
    a, b, config: WarpTileConfig | None = None
) -> np.ndarray:
    """``a @ b`` in float64, summing only live steps per matrix or warp tile.

    See the module docstring for both ways, the rule that picks one,
    the whole matrix's orientation and the accumulation-order
    guarantees.  Non-finite operands delegate to
    :func:`repro.core.engine.vectorized_numeric_product`, which never
    forms products with a zero operand.  Operands may be ndarrays or
    pre-encoded :class:`~repro.core.operands.EncodedOperand` objects.
    """
    from repro.core.engine import vectorized_numeric_product

    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    m_dim, n_dim = a_op.shape[0], b_op.shape[1]
    alive = a_op.k_activity & b_op.k_activity
    if not alive.any():
        return np.zeros((m_dim, n_dim), dtype=np.float64)
    if not (a_op.all_finite and b_op.all_finite):
        # A dense matmul would evaluate 0 * inf = NaN partials the
        # condensed reference never forms; the per-step path is exact.
        return vectorized_numeric_product(
            a_op.dense,
            b_op.dense,
            a_col_nnz=a_op.k_nnz,
            b_row_nnz=b_op.k_nnz,
            a_finite=a_op.all_finite,
            b_finite=b_op.all_finite,
        )

    # Each path allocates its output before a float32 A is cast to its
    # float64 view: allocated after the cast, the spconv experiment's
    # peak RSS measured 7% higher (209 against 195 MiB).
    summary = a_op.segment_summary(config)
    if tile_share(summary, alive) >= TILE_PATH_MAX_SHARE:
        steps = np.flatnonzero(alive)
        if m_dim % TRANSPOSED_ROW_MULTIPLE == 0:
            output_t = np.empty((n_dim, m_dim), dtype=np.float64)
            _live_step_product(
                b_op.dense64.T, a_op.dense64.T, slice(None), steps, output_t
            )
            return output_t.T
        output = np.empty((m_dim, n_dim), dtype=np.float64)
        _live_step_product(
            a_op.dense64, b_op.dense64, slice(None), steps, output
        )
        return output
    output = np.zeros((m_dim, n_dim), dtype=np.float64)
    a64 = a_op.dense64
    # Cast once to C order: the row gathers below would be strided on
    # an F-ordered B (a session's transposed activations).
    b64 = np.ascontiguousarray(b_op.dense, dtype=np.float64)
    live = summary.occupancy & alive
    for tile, r0 in enumerate(range(0, m_dim, config.tm)):
        steps = np.flatnonzero(live[tile])
        if steps.size:
            _live_step_product(
                a64, b64, slice(r0, r0 + config.tm), steps, output
            )
    return output


def blocked_device_spgemm(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
) -> "DeviceSpGemmResult":
    """Blocked functional device-level SpGEMM.

    Drop-in replacement for the vectorized engine (the default at every
    shape, see :func:`~repro.core.spgemm_device.resolve_backend`): the
    numeric product comes from :func:`blocked_numeric_product`, every
    statistics field from the shared closed-form operand summaries
    (:func:`repro.core.operands.device_stats_from_operands`) —
    bit-identical to both existing backends.  Either operand may be
    dense or pre-encoded.
    """
    from repro.core.spgemm_device import DeviceSpGemmResult

    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    stats = device_stats_from_operands(
        a_op, b_op, config, element_bytes=element_bytes
    )
    output = blocked_numeric_product(a_op, b_op, config=config)
    return DeviceSpGemmResult(output=output, stats=stats)
