"""The A operand of a convolution, served from its padded feature map.

A convolution's GEMM multiplies the lowered feature map, (OH·OW, K²·C),
by the flattened weights, (K²·C, N).  Lowered column ``c·K² + ki·K + kj``
holds channel ``c`` of the padded map seen through kernel offset
``(ki, kj)``: every lowered element is a copy of a map element or of
padding, and the lowered matrix is K² times larger than the map.

:class:`ConvOperand` never writes those values out, as the paper's
bitmap-based implicit im2col does not (Section IV).  It holds three
things:

* the padded float64 feature map, split into its stride phases, in a
  flat buffer with a short zero tail;
* the layer geometry (kernel, stride, output shape);
* the lowered *bitmap*: :func:`~repro.core.im2col_engine.lower_windows`
  run on the map's non-zero mask, one byte per element.

Every statistic reads the bitmap (:meth:`ConvOperand.nonzero_mask`), so
the operand's summary, per-step counts and sparsity are those of the
lowered values, bit for bit.  The blocked engine's whole-matrix path
reads the rows of the transposed operand straight from the padded map
(:meth:`ConvOperand.rows`).  The buffer holds the map split into its
``stride²`` *phases*: phase ``(pi, pj)`` of channel ``c`` is the
(Hq, Wq) plane of padded elements ``(stride·y + pi, stride·x + pj)``,
``Hq·Wq`` elements at a channel pitch of at least
:attr:`ConvOperand.row_length` (at stride 1 the one phase is the padded
map).  Kernel offset ``(ki, kj)`` reads phase ``(ki % s, kj % s)``
shifted by ``(ki // s, kj // s)`` at unit stride, so lowered step
``(c, ki, kj)`` is the run of ``OH·Wq`` buffer elements that starts
there: the output rows laid end to end at the row pitch ``Wq``.

* The steps of one kernel offset over a contiguous channel range are
  one strided view, with no copy, whose rows are at least as far apart
  as they are long, as BLAS requires of an operand it reads in place;
* any other set of steps (several offsets, dead channels) is one
  gather of such runs.

A product over these rows has a *wide* output: one column per run
element, :attr:`ConvOperand.row_length` of them, ``OH·Wq`` rounded up
to a multiple of
:data:`~repro.core.engine_blocked.TRANSPOSED_ROW_MULTIPLE`.  Columns past
each output row's OW elements hold products of other map elements or
of padding, and the engine drops them once when it crops the product
into the output map.

Lowered values are built on demand (:attr:`ConvOperand.dense`), by one
gather of the runs' first OW elements per output row, only where a path
multiplies them: the vectorized and reference engines, the blocked
engine's warp-tile path, and its non-finite fallback.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.core.engine_blocked import TRANSPOSED_ROW_MULTIPLE
from repro.core.im2col_engine import lower_windows, pad_feature_map
from repro.core.operands import EncodedOperand
from repro.core.reference import conv_output_shape
from repro.errors import ShapeError
from repro.utils.tiling import ceil_div


class _Layout(NamedTuple):
    """Where one conv geometry's phases and runs sit in the buffer."""

    out_h: int
    out_w: int
    #: Wq, the width of a phase plane: the wide columns of an output row.
    row_pitch: int
    #: ``OH·Wq`` rounded up to a multiple of 8.
    row_length: int
    #: Elements from one channel's phase plane to the next.
    channel_pitch: int
    #: (K²,) read-only: where step (0, ki, kj)'s run starts.
    first: np.ndarray
    #: Where the last step's run starts.
    last: int
    #: Buffer elements: every plane, and the last run.
    size: int
    #: Per phase, ``(h0, w0, start)``: map elements ``[:, h0::s, w0::s]``
    #: sit from buffer element ``start``, at strides (pitch, Wq, 1).
    fills: tuple


@functools.lru_cache(maxsize=512)
def _layout(
    channels: int, height: int, width: int, kernel: int, stride: int, padding: int
) -> _Layout:
    """The buffer layout of a geometry, built once per geometry.

    Map row ``h`` is padded row ``padding + h``: phase row
    ``(padding + h) % stride`` at phase height ``(padding + h) // stride``
    (columns likewise).
    """
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)
    phase_h = ceil_div(height + 2 * padding, stride)
    phase_w = ceil_div(width + 2 * padding, stride)
    row_length = TRANSPOSED_ROW_MULTIPLE * ceil_div(
        out_h * phase_w, TRANSPOSED_ROW_MULTIPLE
    )
    pitch = max(phase_h * phase_w, row_length)
    ki, kj = np.divmod(np.arange(kernel * kernel), kernel)
    phase = (ki % stride) * stride + kj % stride
    first = phase * channels * pitch + (ki // stride) * phase_w + kj // stride
    first.flags.writeable = False
    last = int(first.max()) + (channels - 1) * pitch
    fills = []
    for pi in range(stride):
        h0 = (pi - padding) % stride
        for pj in range(stride):
            w0 = (pj - padding) % stride
            start = (
                (pi * stride + pj) * channels * pitch
                + (padding + h0) // stride * phase_w
                + (padding + w0) // stride
            )
            fills.append((h0, w0, start))
    return _Layout(
        out_h,
        out_w,
        phase_w,
        row_length,
        pitch,
        first,
        last,
        max(stride * stride * channels * pitch, last + row_length),
        tuple(fills),
    )


class ConvOperand(EncodedOperand):
    """A conv layer's lowered A operand, held as its padded map and bitmap.

    Args:
        feature_map: dense (C, H, W) input feature map.
        kernel: square kernel size K.
        stride: spatial stride.
        padding: symmetric zero padding.
        pad / lower: the functions that pad the map's non-zero mask and
            lower it to the bitmap (:func:`pad_feature_map` and
            :func:`lower_windows`); a caller may pass its own references
            to them, so that wrappers installed on those names see the
            lowering.

    A finite map proves the operand finite, since every lowered element
    is a map element or padding.  A non-finite map proves nothing,
    because stride and cropping can leave a map element outside every
    window; the operand then scans its lowered values on first use.
    """

    __slots__ = (
        "bitmap",
        "channels",
        "kernel",
        "stride",
        "out_h",
        "out_w",
        "row_pitch",
        "row_length",
        "_channel_pitch",
        "_first",
        "_buffer",
        "_windows",
    )

    def __init__(
        self,
        feature_map: np.ndarray,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        pad=pad_feature_map,
        lower=lower_windows,
    ) -> None:
        feature_map = np.asarray(feature_map)
        if feature_map.ndim != 3:
            raise ShapeError(
                f"feature_map must be (C, H, W), got {feature_map.shape}"
            )
        channels, height, width = feature_map.shape
        layout = _layout(channels, height, width, kernel, stride, padding)
        self._start("a")
        self._dense = None
        self.bitmap = lower(
            pad(feature_map != 0, padding),
            kernel,
            stride,
            layout.out_h,
            layout.out_w,
        )
        self.channels, self.kernel, self.stride = channels, kernel, stride
        self.out_h, self.out_w = layout.out_h, layout.out_w
        self.row_pitch, self.row_length = layout.row_pitch, layout.row_length
        self._channel_pitch, self._first = layout.channel_pitch, layout.first
        self._buffer = np.zeros(layout.size, dtype=np.float64)
        item = self._buffer.itemsize
        plane_strides = (
            layout.channel_pitch * item, layout.row_pitch * item, item
        )
        for h0, w0, start in layout.fills:
            part = feature_map[:, h0::stride, w0::stride]
            np.ndarray(
                part.shape, np.float64, self._buffer, start * item, plane_strides
            )[...] = part
        # One run per start, overlapping: the ndarray constructor builds
        # the view in a few microseconds, where ``as_strided`` takes
        # about 20 (a cost per layer and image).
        self._windows = np.ndarray(
            (layout.last + 1, layout.row_length),
            dtype=np.float64,
            buffer=self._buffer,
            strides=(item, item),
        )
        if np.isfinite(feature_map).all():
            self._finite = True

    @property
    def shape(self) -> tuple[int, int]:
        """(OH·OW, K²·C): the lowered matrix's shape."""
        return self.bitmap.shape

    @property
    def dense(self) -> np.ndarray:
        """The lowered float64 values, column-major, built on first use."""
        if self._dense is None:
            item = self._buffer.itemsize
            outputs = np.ndarray(
                (self._windows.shape[0], self.out_h, self.out_w),
                dtype=np.float64,
                buffer=self._buffer,
                strides=(item, self.row_pitch * item, item),
            )
            # Step c·K² + offset starts at c·pitch + first[offset].
            starts = (
                np.arange(self.channels)[:, None] * self._channel_pitch
                + self._first
            ).ravel()
            self._dense = outputs[starts].reshape(starts.size, -1).T
        return self._dense

    def nonzero_mask(self) -> np.ndarray:
        """The lowered bitmap (no lowered values are built)."""
        return self.bitmap

    def rows(self, offsets, channels, band) -> np.ndarray:
        """One band of rows of the transposed lowered operand.

        Selects the steps of kernel offsets ``offsets`` (``ki·K + kj``)
        and channels ``channels``: one offset and a channel slice, or
        an offset and a channel index array, or two index arrays of
        equal length.  ``band`` is one of :meth:`bands`; the rows hold
        its wide columns ``l0:l1``.  A channel slice is a strided view
        of the buffer; anything else is one gather.
        """
        _, (l0, l1) = band
        pitch, first = self._channel_pitch, self._first[offsets]
        if isinstance(channels, slice):
            starts = slice(
                channels.start * pitch + first, channels.stop * pitch + first, pitch
            )
        else:
            starts = channels * pitch + first
        return self._windows[starts, l0:l1]

    def bands(self, length: int):
        """Output-row bands of about ``length`` wide columns each.

        Yields ``((r0, r1), (l0, l1))``: output rows ``r0:r1`` sit in
        wide columns ``l0:l1``.  Every band but the last spans as many
        whole rows as fit in ``length`` columns (at least one), raised
        until its width is a multiple of
        :data:`~repro.core.engine_blocked.TRANSPOSED_ROW_MULTIPLE`; the
        last ends at :attr:`row_length`, a multiple of it too.
        """
        pitch = self.row_pitch
        rows = max(1, length // pitch)
        while (rows * pitch) % TRANSPOSED_ROW_MULTIPLE:
            rows += 1
        for r0 in range(0, self.out_h, rows):
            r1 = min(self.out_h, r0 + rows)
            end = self.row_length if r1 == self.out_h else r1 * pitch
            yield (r0, r1), (r0 * pitch, end)


class ConvWeightOperand(EncodedOperand):
    """A conv layer's flattened (K²·C, N) weights, the B side of its GEMM.

    Besides the :class:`EncodedOperand` caches it holds its float64
    weights grouped by kernel offset (:meth:`by_offset`), so each chunk
    of a :class:`ConvOperand` product multiplies a block with unit
    stride.  That array is the float64 copy :meth:`warm` builds; the
    channel-major :attr:`dense64` is only built if a path asks for it.
    """

    __slots__ = ("kernel", "_by_offset")

    def __init__(self, dense: np.ndarray, kernel: int) -> None:
        super().__init__(dense, "b")
        self.kernel = kernel
        self._by_offset: "np.ndarray | None" = None

    def by_offset(self) -> np.ndarray:
        """(K², N, C) float64: step ``c·K² + offset`` at ``[offset, :, c]``.

        Channels are the contiguous axis: from the flattened weights of
        a (N, C, K, K) array that copy reads short strides, and took
        3.5 ms for a 512 x 512 x 3 x 3 layer where N contiguous took 7.2;
        a matmul multiplies either layout equally fast.
        """
        if self._by_offset is None:
            area = self.kernel * self.kernel
            steps, n_dim = self.shape
            self._by_offset = np.ascontiguousarray(
                self.dense.reshape(steps // area, area, n_dim).transpose(1, 2, 0),
                dtype=np.float64,
            )
        return self._by_offset

    def warm(
        self, config, element_bytes: int = 2
    ) -> "ConvWeightOperand":
        """Eagerly populate the caches a serving session will hit."""
        self.summary(config, element_bytes)
        _ = self.by_offset(), self.k_nnz, self.all_finite
        return self
