"""Bitmap-based implicit sparse im2col (Figure 11) — the paper's method.

The feature map stays in global memory in bitmap encoding (per-row bitmap
+ condensed values + per-row value offset).  Lowered columns are derived
in registers with cheap bit operations:

S1  load one bitmap row and its condensed values,
S2  mask out the window bits for the current kernel-column offset
    (for subsequent offsets, shift the bitmap left by one),
S3  accumulate the shifted-out bits; the running sum is the address
    offset of the window's first value inside the condensed value array,
S4  population-count the masked bits to know how many values to emit.

Because every step is a register-level mask / shift / popcount, the cost
per lowered column is independent of where the non-zeros are — unlike
CSR, whose index lookups are data dependent.  The emitted (bitmap,
values, offset) triples are exactly the condensed operands the
outer-product SpGEMM consumes, which is what makes the whole pipeline an
*implicit* sparse im2col.

Two backends produce identical results: ``backend="vectorized"`` (the
default) runs the word-level engine of :mod:`repro.core.im2col_engine`
— the same S1-S4 algorithm applied to every (channel, row) bitmap at
once on packed ``uint32`` words — while ``backend="reference"`` keeps
the original per-row Python loop as the bit-exact oracle (values,
lowered bitmap, offsets and every statistics field).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.im2col_engine import (
    bitmap_lowering,
    check_im2col_backend,
    pad_feature_map,
)
from repro.core.reference import conv_output_shape
from repro.errors import ShapeError
from repro.formats.bitmap import BitmapMatrix
from repro.utils.bitops import popcount, prefix_popcount
from repro.utils.tiling import ceil_div


@dataclass
class BitmapIm2colStats:
    """Operation counts of the bitmap-based sparse im2col.

    Attributes:
        row_loads: (channel, feature-map row) segments loaded.
        word_reads: 32-bit bitmap words read from memory.
        mask_ops: bitmap mask applications (one per lowered column segment).
        shift_ops: bitmap shift operations.
        popc_ops: population-count instructions issued.
        value_reads: condensed values fetched from the value array.
        value_writes: condensed values emitted to the lowered encoding.
        bitmap_bits_written: bits of lowered bitmap produced.
        lowered_shape: shape of the lowered feature map.
    """

    row_loads: int = 0
    word_reads: int = 0
    mask_ops: int = 0
    shift_ops: int = 0
    popc_ops: int = 0
    value_reads: int = 0
    value_writes: int = 0
    bitmap_bits_written: int = 0
    lowered_shape: tuple[int, int] = (0, 0)

    @property
    def register_ops(self) -> int:
        """Total cheap register-level bit operations."""
        return self.mask_ops + self.shift_ops + self.popc_ops


@dataclass(frozen=True)
class BitmapIm2colResult:
    """Output of the bitmap-based sparse im2col.

    Attributes:
        lowered: dense (OH*OW, K*K*C) lowered feature map (for numeric
            verification and for feeding the functional SpGEMM).
        encoding: the same matrix in bitmap encoding, column-major values
            — the condensed form handed to the outer-product SpGEMM.
        stats: operation counts.
    """

    lowered: np.ndarray
    encoding: BitmapMatrix
    stats: BitmapIm2colStats


def bitmap_im2col_counts(
    channels: int,
    kernel: int,
    out_h: int,
    out_w: int,
    padded_width: int,
    value_reads: int,
) -> BitmapIm2colStats:
    """Operation tallies of one bitmap im2col, in closed form.

    Row loads, word reads and the mask/shift/POPC counts depend only on
    the geometry (the paper's point: the bitmap im2col's register cost
    is independent of where the non-zeros are); the condensed values
    read, and written to the lowered encoding, are the lowered map's
    non-zeros, ``value_reads``.  The vectorized engine, the analytic
    counter and :func:`repro.core.spconv.sparse_conv2d` share this one
    form.
    """
    row_loads = channels * kernel * out_h
    return BitmapIm2colStats(
        row_loads=row_loads,
        word_reads=row_loads * ceil_div(padded_width, 32),
        mask_ops=row_loads,
        shift_ops=row_loads * (kernel - 1),
        popc_ops=row_loads * kernel,
        value_reads=value_reads,
        value_writes=value_reads,
        bitmap_bits_written=out_h * out_w * kernel * kernel * channels,
        lowered_shape=(out_h * out_w, kernel * kernel * channels),
    )


def bitmap_im2col(
    feature_map: np.ndarray,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    backend: str = "vectorized",
) -> BitmapIm2colResult:
    """Sparse, outer-product-friendly im2col on a bitmap-encoded input.

    Args:
        feature_map: dense (C, H, W) input (the bitmap encoding is built
            internally; zeros carry no value storage).
        kernel: square kernel size K.
        stride: spatial stride.
        padding: symmetric zero padding.
        backend: ``"vectorized"`` (default) runs the word-level engine of
            :mod:`repro.core.im2col_engine`; ``"reference"`` runs the
            original per-row Python loop.  Both return bit-identical
            lowered values, encodings and statistics.
    """
    check_im2col_backend(backend)
    feature_map = np.asarray(feature_map)
    if feature_map.ndim != 3:
        raise ShapeError(f"feature_map must be (C, H, W), got {feature_map.shape}")
    channels, height, width = feature_map.shape
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)
    feature_map = pad_feature_map(feature_map, padding)
    padded_width = feature_map.shape[2]

    if backend != "reference":
        lowered, value_reads = bitmap_lowering(
            feature_map, kernel, stride, out_h, out_w
        )
        stats = bitmap_im2col_counts(
            channels, kernel, out_h, out_w, padded_width, value_reads
        )
        encoding = BitmapMatrix.from_dense(lowered, order="col")
        return BitmapIm2colResult(lowered=lowered, encoding=encoding, stats=stats)

    stats = BitmapIm2colStats()
    lowered = np.zeros(
        (out_h * out_w, kernel * kernel * channels), dtype=feature_map.dtype
    )
    words_per_row = ceil_div(padded_width, 32)

    for c in range(channels):
        for ki in range(kernel):
            for out_row in range(out_h):
                src_row = out_row * stride + ki
                row = feature_map[c, src_row, :]
                row_bits = row != 0
                row_values = row[row_bits]
                offsets = prefix_popcount(row_bits)
                # S1: one row load = bitmap words + its condensed values.
                stats.row_loads += 1
                stats.word_reads += words_per_row
                for kj in range(kernel):
                    col = c * kernel * kernel + ki * kernel + kj
                    segment_bits = row_bits[kj : kj + stride * out_w : stride]
                    # S2: mask (first offset) or shift-left (later offsets).
                    if kj == 0:
                        stats.mask_ops += 1
                    else:
                        stats.shift_ops += 1
                    # S4: POPC to count the non-zeros under the mask.
                    stats.popc_ops += 1
                    count = popcount(segment_bits)
                    if count == 0:
                        continue
                    if stride == 1:
                        # S3: the accumulated shifted-out bits give the
                        # starting offset; values are contiguous.
                        start = int(offsets[kj])
                        values = row_values[start : start + count]
                        positions = np.flatnonzero(segment_bits)
                    else:
                        # Strided windows gather non-contiguous values; the
                        # per-bit offsets still come from the prefix counts.
                        positions = np.flatnonzero(segment_bits)
                        source_cols = kj + positions * stride
                        values = row_values[offsets[source_cols]]
                    stats.value_reads += count
                    stats.value_writes += count
                    rows_out = out_row * out_w + positions
                    lowered[rows_out, col] = values
    stats.bitmap_bits_written = lowered.size
    stats.lowered_shape = lowered.shape
    encoding = BitmapMatrix.from_dense(lowered, order="col")
    return BitmapIm2colResult(lowered=lowered, encoding=encoding, stats=stats)


def count_bitmap_im2col_ops(
    feature_mask: np.ndarray,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> BitmapIm2colStats:
    """Vectorised operation counting for large feature maps.

    Produces the same statistics as :func:`bitmap_im2col` without
    materialising the lowered matrix, so Table III can be evaluated at
    the paper's layer size.
    """
    feature_mask = np.asarray(feature_mask, dtype=bool)
    if feature_mask.ndim != 3:
        raise ShapeError(f"feature_mask must be (C, H, W), got {feature_mask.shape}")
    channels, height, width = feature_mask.shape
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)
    if padding:
        feature_mask = np.pad(
            feature_mask, ((0, 0), (padding, padding), (padding, padding))
        )
    padded_width = feature_mask.shape[2]

    nonzeros = 0
    for ki in range(kernel):
        for kj in range(kernel):
            window = feature_mask[
                :,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ]
            nonzeros += int(np.count_nonzero(window))
    return bitmap_im2col_counts(
        channels, kernel, out_h, out_w, padded_width, nonzeros
    )
