"""Vectorized im2col execution engines (word-level Figure 11b, all rows at once).

The im2col variants of :mod:`repro.core` historically walked channels x
kernel rows x output rows x kernel columns in pure Python, which capped
the functional convolution path at toy feature maps.  This module is the
im2col counterpart of :mod:`repro.core.engine`: NumPy-wide replacements
that produce *bit-identical* lowered matrices, encodings and statistics,
with the original loops retained behind ``backend="reference"`` as the
oracles (cross-checked in ``tests/core/test_im2col_engines.py``).

Two engines live here:

* :func:`lower_windows` — K² strided slab copies, one per kernel
  offset, that produce the whole (OH*OW, K*K*C) lowered matrix in
  column-major order.  The dense, outer-friendly and CSR variants build
  on it (their differences are purely in accounting, which is
  closed-form).
* :func:`bitmap_lowering` — the word-level register algorithm of
  Figure 11b (S1-S4), applied to every (channel, feature-map row) at
  once.  All row bitmaps are packed into ``uint32`` words (S1), the
  condensed-value offset of every bit position is derived from a
  word-prefix popcount plus a low-bit mask + POPC inside the word
  (S2/S3), and per-window non-zero counts come from masked popcounts
  (S4).  The gathered condensed values are then scattered into the
  lowered matrix one (kernel row, kernel column) offset at a time —
  K*K NumPy-wide steps instead of C*K*OH*K Python iterations.

Why the outputs are bit-identical
---------------------------------

Every engine writes each lowered element exactly once, copying the same
source element the reference loop copies (the bitmap engine additionally
routes the copy through the condensed value array, which holds verbatim
copies of the non-zero inputs).  No arithmetic is performed on the
values, so there is no rounding to diverge — equality is element-wise
exact, and the statistics are integer counts computed in closed form
from the same geometry / non-zero structure the loops accumulate them
from.
"""

from __future__ import annotations

import numpy as np

from repro.core.spgemm_device import BACKENDS
from repro.errors import ConfigError
from repro.utils.bitops import (
    WORD_BITS,
    pack_bits_rows,
    popcount_words,
    prefix_popcount_words,
)


def check_im2col_backend(backend: str) -> None:
    """Validate a ``backend=`` argument.

    The valid set is shared with the SpGEMM dispatcher
    (:data:`repro.core.spgemm_device.BACKENDS`) because
    :func:`repro.core.spconv.sparse_conv2d` threads one backend value
    through both pipeline stages.

    Raises:
        ConfigError: the name is not a known backend.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {list(BACKENDS)}"
        )


def pad_feature_map(feature_map: np.ndarray, padding: int) -> np.ndarray:
    """Symmetric spatial zero padding of a (C, H, W) feature map.

    The same array ``np.pad`` returns, built as one zeroed allocation
    and one interior copy (``np.pad``'s generic per-axis machinery costs
    more than the copy on a small map).
    """
    if not padding:
        return feature_map
    channels, height, width = feature_map.shape
    padded = np.zeros(
        (channels, height + 2 * padding, width + 2 * padding),
        dtype=feature_map.dtype,
    )
    padded[:, padding : padding + height, padding : padding + width] = feature_map
    return padded


def lower_windows(
    padded: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Lower a padded (C, Hp, Wp) map to (OH*OW, K*K*C), column-major.

    Column ``c*K*K + ki*K + kj`` holds, for every output position, the
    element at channel ``c`` and kernel offset ``(ki, kj)`` — the same
    layout every reference loop produces.  The matrix is built as its
    transpose: one (K*K*C, OH*OW) buffer filled by K² strided slab
    copies, one per kernel offset, so every copy writes contiguous rows.
    The returned F-contiguous view holds the same element at every index
    as a row-major lowering; :func:`bitmap_lowering` allocates the same
    order, so both lowerings hand BLAS identical arrays.
    """
    channels = padded.shape[0]
    columns = np.empty(
        (channels, kernel, kernel, out_h, out_w), dtype=padded.dtype
    )
    row_stop = stride * (out_h - 1) + 1
    col_stop = stride * (out_w - 1) + 1
    for ki in range(kernel):
        for kj in range(kernel):
            columns[:, ki, kj] = padded[
                :, ki : ki + row_stop : stride, kj : kj + col_stop : stride
            ]
    return columns.reshape(channels * kernel * kernel, out_h * out_w).T


def bit_offsets_rows(bits: np.ndarray) -> np.ndarray:
    """Condensed-value offset of every bit position, for all rows at once.

    The word-level form of :func:`repro.utils.bitops.prefix_popcount`:
    rows are packed into ``uint32`` words, and the offset of bit ``w`` is
    the word-prefix popcount of its word plus the popcount of the word
    masked below the bit — mask, shift and POPC steps (S2/S3 of
    Figure 11b) executed NumPy-wide.

    Args:
        bits: (rows, width) boolean array.

    Returns:
        (rows, width) ``int64`` array of exclusive per-row prefix counts.
    """
    rows, width = bits.shape
    if width == 0:
        return np.zeros((rows, 0), dtype=np.int64)
    words = pack_bits_rows(bits)
    word_prefix = prefix_popcount_words(words)
    positions = np.arange(width)
    word_of = positions // WORD_BITS
    bit_of = (positions % WORD_BITS).astype(np.uint32)
    low_mask = (np.uint32(1) << bit_of) - np.uint32(1)
    below_in_word = popcount_words(words[:, word_of] & low_mask)
    return word_prefix[:, word_of] + below_in_word


def bitmap_lowering(
    padded: np.ndarray,
    kernel: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> tuple[np.ndarray, int]:
    """Word-level sparse lowering of a padded (C, Hp, Wp) feature map.

    Implements S1-S4 of Figure 11b for all (channel, row) bitmaps at
    once: pack the bitmaps into words, derive every non-zero's condensed
    address from word-prefix + masked popcounts, and gather/scatter the
    condensed values into the lowered matrix per kernel offset.

    Returns:
        ``(lowered, value_reads)`` — the dense (OH*OW, K*K*C) lowered
        matrix in column-major order (zeros stay zero; non-zero
        positions are verbatim copies routed through the condensed
        array) and the number of condensed values fetched, which equals
        the reference loop's ``value_reads`` / ``value_writes`` tally.
    """
    channels, padded_h, padded_w = padded.shape
    bits = padded != 0
    flat_bits = bits.reshape(channels * padded_h, padded_w)
    # S1: every (channel, row) bitmap lives in packed words; the per-bit
    # condensed offsets fall out of word-level mask/shift/POPC steps.
    offsets = bit_offsets_rows(flat_bits)
    row_nnz = flat_bits.sum(axis=1, dtype=np.int64)
    row_starts = np.zeros_like(row_nnz)
    if row_nnz.size > 1:
        np.cumsum(row_nnz[:-1], out=row_starts[1:])
    # The condensed value array, per-row segments concatenated (exactly
    # the per-row condensed arrays the reference loop gathers from).
    condensed = padded.reshape(channels * padded_h, padded_w)[flat_bits]
    global_offsets = row_starts[:, None] + offsets

    # Column-major, as :func:`lower_windows` builds it.
    lowered = np.zeros(
        (out_h * out_w, kernel * kernel * channels),
        dtype=padded.dtype,
        order="F",
    )
    lowered_rows = np.arange(out_h * out_w).reshape(out_h, out_w)
    channel_base = np.arange(channels)[:, None] * padded_h
    out_row_stride = stride * np.arange(out_h)
    out_col_stride = stride * np.arange(out_w)
    value_reads = 0
    for ki in range(kernel):
        source_rows = channel_base + (out_row_stride + ki)[None, :]  # (C, OH)
        bits_rows = flat_bits[source_rows]  # (C, OH, Wp)
        offs_rows = global_offsets[source_rows]  # (C, OH, Wp)
        for kj in range(kernel):
            source_cols = out_col_stride + kj  # (OW,)
            # S2/S4: the window mask and its population fall out of the
            # precomputed per-bit structure for all rows at once.
            window_bits = bits_rows[:, :, source_cols]  # (C, OH, OW)
            chan, orow, ocol = np.nonzero(window_bits)
            # S3: accumulated prefix counts address the condensed array
            # (gathered only at the non-zero positions).
            values = condensed[offs_rows[chan, orow, source_cols[ocol]]]
            value_reads += values.size
            columns = chan * (kernel * kernel) + ki * kernel + kj
            lowered[lowered_rows[orow, ocol], columns] = values
    return lowered, value_reads
