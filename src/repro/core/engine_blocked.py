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
one accumulation: consecutive matmuls of at most
:data:`MAX_PRODUCT_STEPS` live steps, the first writing the output and
each later one adding through one scratch array.  A contiguous run of
steps is a slice of the operands; any other run is one gather.  Dead
steps never reach a matmul.  The product runs in one of three ways:

Whole matrix
    Once, with all rows of A and every live step, in ascending-k order.
    When M, A's row count, is a multiple of
    :data:`TRANSPOSED_ROW_MULTIPLE`, it runs the transposed product
    ``out.T = B.T @ A.T`` into a C-ordered (N, M) buffer and returns
    that buffer's transpose.  Any other M runs ``A @ B``, into rows
    widened with zero columns to a multiple of 8 when N is not one, and
    returns the (M, N) view.  The rule is what keeps the bytes
    independent of the BLAS thread count (below).

Conv map
    The whole-matrix way of a
    :class:`~repro.core.conv_operand.ConvOperand` (a conv layer's padded
    feature map and lowered bitmap, whose lowered values are never
    built) times its layer's
    :class:`~repro.core.conv_operand.ConvWeightOperand`; any other B
    takes the plain whole-matrix way over the lowered values.  Live
    steps run in offset-major order (kernel offset, then channel).  A
    layer of at most :data:`MAX_PRODUCT_STEPS` steps is one chunk of
    every live step; otherwise each offset's live channels split into
    chunks of at most that many.  A chunk of consecutive channels is a
    strided view of the map's stride phase that the offset reads
    (:meth:`~repro.core.conv_operand.ConvOperand.rows`), and its weight
    rows a unit-stride block of
    :meth:`~repro.core.conv_operand.ConvWeightOperand.by_offset`; any
    other chunk is one gather.  The product is *wide*: one column per
    run element, ``row_length`` of them.  From
    :data:`IMPLICIT_TRANSPOSED_MIN_LENGTH` columns (or when N is not a
    multiple of 8) it runs transposed, cropped into a C-contiguous
    (N, OH, OW) map whose transposed (OH·OW, N) view is returned; with
    at most :data:`IMPLICIT_BAND_MAX_CHANNELS` output channels it runs
    in bands of whole output rows about :data:`IMPLICIT_BAND_LENGTH`
    columns wide, so that each band is gathered, accumulated and
    cropped in cache.  Below that length it runs ``A @ B`` in one band,
    cropped into a C-ordered (OH·OW, N) array.  No lowered matrix is
    written, so a layer costs its bitmap and its product.  On VGG-16 at
    benchmark scale, operand build, statistics and product took 241,
    126 and 627 ms per image over a lowered matrix and 49, 51 and
    578 ms this way (one thread, sums of per-layer medians of 7,
    OpenBLAS 0.3.31 on a 2-vCPU host).  Timed against the lowered
    matrix in one process, alternating (one thread, sums of per-layer
    medians of 9): VGG-16 874 against 711 ms per image, Mask R-CNN at
    scale 0.25 227 against 203, and ResNet-18 118 against 125, whose
    56 x 56 layers gain 11-14% while its 7 x 7 layers, which multiply
    64 wide columns for 49 outputs, lose 20%.

Warp tiles
    Once per row tile of A (``WarpTileConfig.tm`` rows, one warp tile
    high), with only the live steps where that tile holds a non-zero,
    in ascending-k order.  A warp tile whose A side is empty issues
    nothing, as the two-level bitmap lets the hardware skip it (Section
    VI-D); its output rows stay zero.  The per-tile step lists come from
    the segment occupancy of A's
    :class:`~repro.core.operands.OperandSummary`.  B is cast once to a
    C-ordered float64 copy with N rounded up to a multiple of 8, and
    the (M, N) view of the equally wide output is returned.

The way is picked by :func:`tile_share` — the share of (row tile, live
step) pairs where A's tile is non-empty, an O(K) dot product over the
summary the same call's statistics already built — against
:data:`TILE_PATH_MAX_SHARE`.  Block-pruned weights (RNN, BERT) sit at
0.05-0.10 and take the warp tiles; dense-ish conv activations and
unstructured operands sit near 1 and take the whole matrix (the conv
map way for a :class:`~repro.core.conv_operand.ConvOperand`).

Either operand may be a plain ndarray or a pre-encoded
:class:`~repro.core.operands.EncodedOperand`, which caches its per-k
non-zero counts, its float64 view (for conv weights, the offset-major
one) and its summary.  Nothing else is cached: every block is sliced or
gathered from the float64 operands at multiply time, so cached and
uncached runs feed the same arrays to the same matmuls and stay
bit-identical (asserted in ``tests/core/test_encoded_operands.py``).

Statistics are *not* re-derived: :func:`blocked_device_spgemm` composes
the same per-operand summaries
(:func:`repro.core.operands.device_stats_from_operands`) the vectorized
engine uses, so every :class:`DeviceStats` / ``WarpStats`` field stays
bit-identical to the reference backend by construction.

Accumulation-order guarantees
-----------------------------

Chunks of live steps accumulate in a fixed order (ascending k, or
offset-major for a conv map), but *within* one matmul the multiply-add
order is whatever the BLAS kernel picks.  Consequently:

* on integer-valued data (all products and partial sums exactly
  representable in float64) the output is exactly equal to the reference
  loop — addition of exactly-representable values is associative,
* on general float data the result may differ from the reference loop in
  the last bits; both are correct float64 evaluations of the same sum
  and agree to well within 2 float32 ulps (asserted by the Hypothesis
  parity suite in ``tests/core/test_engine_blocked.py`` and, for conv
  maps, by ``tests/core/test_conv_operand.py``),
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
  and for none of the 12 that are; a 32-row warp tile of 256 steps
  differed at N = 250 and N = 257.  So every matmul here writes such
  an output: the whole matrix runs transposed when M is a multiple of
  8 and widens N otherwise, the warp tiles widen N, and a conv map's
  bands are multiples of 8 wide, because its wide row length is (pitch
  rule) ``OH·Wq`` rounded up to a multiple of 8, where ``Wq``, the row
  pitch, is the width of the map's stride phases (the padded width at
  stride 1).  Left at 50·78 = 3900, the last band of Mask
  R-CNN fpn-p2 at scale 0.25 differed in 2 elements.  Other thread
  counts and other builds are unverified; wherever the suite runs,
  ``TestBlasThreadCount`` in ``tests/core/test_engine_blocked.py`` pins
  that a one-thread cap changes no byte of every zoo layer at
  benchmark scale, on two images, of whole-matrix products on either
  side of the rule, of a 250-wide warp tile and of that conv layer,
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
from repro.utils.tiling import ceil_div

#: Live reduction steps one matmul sums at most: sixteen of the paper's
#: 16-step warp k-tiles, and below 385, the shortest reduction OpenBLAS
#: 0.3.31 was measured to sum differently at 1 and 2 threads.  The bound
#: alone does not make a product's bytes independent of the thread
#: count; its output's contiguous dimension must also be a multiple of
#: 8 (module docstring).
MAX_PRODUCT_STEPS = 256

#: Every matmul's output has a contiguous dimension that is a multiple
#: of this: OpenBLAS 0.3.31 gave the same bytes at 1 and 2 threads for
#: a ≤256-step product exactly when that dimension was a multiple of 8
#: (module docstring).  The whole-matrix path runs transposed only when
#: A's row count is one, a conv map's wide row length is rounded up to
#: one, and any other product widens N to one.
TRANSPOSED_ROW_MULTIPLE = 8

#: A conv map's wide row length from which its product runs transposed
#: (it always does when N is not a multiple of
#: :data:`TRANSPOSED_ROW_MULTIPLE`).  One thread, medians of 7, conv
#: maps at benchmark scale, transposed against ``A @ B``: ResNet-18 5-2
#: (64 columns, N = 512) 10.5 against 8.4 ms, Mask R-CNN res4-conv
#: (256) 7.9 against 7.7 ms, and from 784 columns up the transposed
#: product won (ResNet-18 3-1 4.3 against 4.8 ms, Mask R-CNN res3-conv
#: at 1000 7.5 against 9.0 ms).
IMPLICIT_TRANSPOSED_MIN_LENGTH = 512

#: A transposed conv-map product with at most this many output
#: channels runs in bands of :data:`IMPLICIT_BAND_LENGTH` wide columns,
#: each accumulated while it stays in cache; a wider one runs as one
#: band.  One thread, medians of 7: VGG-16 conv1-2 (N = 64) took 135 ms
#: as one band, 87 ms in 1024-column bands and 100 ms in 2048-column
#: ones, conv2-2 (N = 128) 83 against 78 ms; conv3-2 (N = 256) took
#: 68 ms as one band and 71 ms in bands.
IMPLICIT_BAND_MAX_CHANNELS = 128

#: Wide columns of one band (rounded to whole output rows), see
#: :data:`IMPLICIT_BAND_MAX_CHANNELS`.
IMPLICIT_BAND_LENGTH = 1024

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


def _accumulate(blocks, target: np.ndarray) -> None:
    """``target = sum(left @ right for left, right in blocks)``, in order.

    The first matmul writes ``target``; later ones add through one
    scratch array.
    """
    scratch = None
    for index, (left, right) in enumerate(blocks):
        if index == 0:
            np.matmul(left, right, out=target)
            continue
        if scratch is None:
            scratch = np.empty_like(target)
        np.matmul(left, right, out=scratch)
        target += scratch


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
    order; a contiguous chunk is a slice of both operands, any other
    one gather.
    """

    def blocks():
        for start in range(0, steps.size, MAX_PRODUCT_STEPS):
            ks = steps[start : start + MAX_PRODUCT_STEPS]
            if ks[-1] - ks[0] + 1 == ks.size:
                ks = slice(ks[0], ks[-1] + 1)
            yield a64[rows, ks], b64[ks]

    _accumulate(blocks(), output[rows])


def _offset_chunks(live: np.ndarray):
    """``(offsets, channels)`` chunks of a conv layer's live steps.

    ``live`` is the (K², C) live-step mask, indexed by kernel offset and
    channel.  When it holds at most :data:`MAX_PRODUCT_STEPS` steps,
    every live step is one chunk of two index arrays, in offset-major
    order.  Otherwise each offset's live channels are split into chunks
    of at most that many; a run of consecutive channels is one offset
    and a slice, any other chunk one offset and an index array.
    """
    if live.size <= MAX_PRODUCT_STEPS:
        yield np.nonzero(live)
        return
    for offset, channel_live in enumerate(live):
        channels = np.flatnonzero(channel_live)
        for start in range(0, channels.size, MAX_PRODUCT_STEPS):
            chunk = channels[start : start + MAX_PRODUCT_STEPS]
            if chunk[-1] - chunk[0] + 1 == chunk.size:
                chunk = slice(int(chunk[0]), int(chunk[-1]) + 1)
            yield offset, chunk


def _implicit_product(a_op, b_op, alive: np.ndarray) -> np.ndarray:
    """The whole-matrix product of a :class:`ConvOperand` and its layer's
    :class:`ConvWeightOperand`, read from the operand's padded map.

    Each of :func:`_offset_chunks`' chunks multiplies its weight rows
    with :meth:`ConvOperand.rows`.  A product of at least
    :data:`IMPLICIT_TRANSPOSED_MIN_LENGTH` wide columns, or with N not a
    multiple of :data:`TRANSPOSED_ROW_MULTIPLE`, runs transposed (in
    bands when N is at most :data:`IMPLICIT_BAND_MAX_CHANNELS`) and
    returns the transposed view of a C-contiguous (N, OH, OW) map; any
    other runs ``A @ B`` as one band and returns a C-ordered (OH·OW, N)
    array.  Every band is accumulated in its own C-ordered array, whose
    contiguous dimension is a multiple of 8, and cropped into the output.
    """
    n_dim = b_op.shape[1]
    weights = b_op.by_offset()
    chunks = list(
        _offset_chunks(alive.reshape(a_op.channels, len(weights)).T)
    )
    # Each chunk's (steps, N) weight rows.
    blocks = [
        weights[offsets, :, chunk].T
        if isinstance(chunk, slice)
        else weights[offsets, :, chunk]
        for offsets, chunk in chunks
    ]
    length, pitch, out_w = a_op.row_length, a_op.row_pitch, a_op.out_w
    transposed = (
        length >= IMPLICIT_TRANSPOSED_MIN_LENGTH
        or n_dim % TRANSPOSED_ROW_MULTIPLE
    )
    if transposed:
        output = np.empty((n_dim, a_op.out_h, out_w), dtype=np.float64)
        maps = output
    else:
        output = np.empty((a_op.out_h, out_w, n_dim), dtype=np.float64)
        maps = output.transpose(2, 0, 1)
    banded = transposed and n_dim <= IMPLICIT_BAND_MAX_CHANNELS
    for band in a_op.bands(IMPLICIT_BAND_LENGTH if banded else length):
        (r0, r1), (l0, l1) = band
        pairs = zip(chunks, blocks)
        if transposed:
            wide = np.empty((n_dim, l1 - l0), dtype=np.float64)
            _accumulate(
                ((w.T, a_op.rows(*chunk, band)) for chunk, w in pairs), wide
            )
        else:
            wide_t = np.empty((l1 - l0, n_dim), dtype=np.float64)
            _accumulate(
                ((a_op.rows(*chunk, band).T, w) for chunk, w in pairs), wide_t
            )
            wide = wide_t.T
        maps[:, r0:r1] = wide[:, : (r1 - r0) * pitch].reshape(
            n_dim, r1 - r0, pitch
        )[:, :, :out_w]
    if transposed:
        return output.reshape(n_dim, -1).T
    return output.reshape(-1, n_dim)


def _padded_width(n_dim: int) -> int:
    """``n_dim`` rounded up to a multiple of :data:`TRANSPOSED_ROW_MULTIPLE`."""
    return TRANSPOSED_ROW_MULTIPLE * ceil_div(n_dim, TRANSPOSED_ROW_MULTIPLE)


def _widened(b: np.ndarray, width: int) -> np.ndarray:
    """``b`` as a C-ordered float64 array ``width`` columns wide.

    The columns past ``b``'s are zero; a matmul into rows that wide has
    an output whose contiguous dimension is ``width``.
    """
    if width == b.shape[1]:
        return np.ascontiguousarray(b, dtype=np.float64)
    widened = np.zeros((b.shape[0], width), dtype=np.float64)
    widened[:, : b.shape[1]] = b
    return widened


def blocked_numeric_product(
    a, b, config: WarpTileConfig | None = None
) -> np.ndarray:
    """``a @ b`` in float64, summing only live steps per matrix or warp tile.

    See the module docstring for the three ways, the rule that picks
    one, the orientations and the accumulation-order guarantees.
    Non-finite operands delegate to
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
        from repro.core.conv_operand import ConvOperand, ConvWeightOperand

        if isinstance(a_op, ConvOperand) and isinstance(b_op, ConvWeightOperand):
            return _implicit_product(a_op, b_op, alive)
        steps = np.flatnonzero(alive)
        if m_dim % TRANSPOSED_ROW_MULTIPLE == 0:
            output_t = np.empty((n_dim, m_dim), dtype=np.float64)
            _live_step_product(
                b_op.dense64.T, a_op.dense64.T, slice(None), steps, output_t
            )
            return output_t.T
        width = _padded_width(n_dim)
        output = np.empty((m_dim, width), dtype=np.float64)
        b64 = b_op.dense64 if width == n_dim else _widened(b_op.dense, width)
        _live_step_product(a_op.dense64, b64, slice(None), steps, output)
        return output[:, :n_dim]
    width = _padded_width(n_dim)
    output = np.zeros((m_dim, width), dtype=np.float64)
    a64 = a_op.dense64
    # Cast once to C order, N rounded up: the row gathers below would
    # be strided on an F-ordered B (a session's transposed activations).
    b64 = _widened(b_op.dense, width)
    live = summary.occupancy & alive
    for tile, r0 in enumerate(range(0, m_dim, config.tm)):
        steps = np.flatnonzero(live[tile])
        if steps.size:
            _live_step_product(
                a64, b64, slice(r0, r0 + config.tm), steps, output
            )
    return output[:, :n_dim]


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
