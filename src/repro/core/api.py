"""High-level public API of the dual-side sparse Tensor Core library.

These are the entry points a downstream user is expected to call:

* :class:`SparseMatrix` — a bitmap-encoded matrix with convenience
  constructors and statistics,
* :func:`spgemm` — dual-side sparse matrix multiplication (numerically
  exact, with instruction-level statistics),
* :func:`spgemm_batched` — the same over a whole batch of operand pairs
  in one call,
* :func:`sparse_im2col` — the bitmap-based implicit sparse im2col, and
* :func:`spconv` — dual-side sparse convolution.

All functional entry points accept ``backend="auto"`` (the default —
the blocked engine of :mod:`repro.core.engine_blocked`, at every
shape), ``backend="blocked"`` / ``backend="vectorized"`` (the
per-step engine of :mod:`repro.core.engine`) to pin one engine, or ``backend="reference"``
(the original per-warp-tile Python loop, kept as a cross-check
oracle).  All backends produce identical statistics; numerics are
bit-identical between the vectorized engine and the reference loop,
and exact on integer-valued data (within 2 float32 ulps otherwise)
for the blocked engine.

For latency estimates on a modelled V100-class GPU, see
:mod:`repro.kernels` (per-method cost models) and
:mod:`repro.experiments` (the paper's tables and figures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.im2col_bitmap import BitmapIm2colResult, bitmap_im2col
from repro.core.spconv import SpConvStats, sparse_conv2d
from repro.core.spgemm_device import DeviceStats, device_spgemm
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ShapeError
from repro.formats.bitmap import BitmapMatrix
from repro.formats.hierarchical import TwoLevelBitmapMatrix
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class SparseMatrix:
    """User-facing bitmap-encoded sparse matrix.

    A thin, immutable wrapper over :class:`repro.formats.bitmap.BitmapMatrix`
    that keeps the original dense view around for verification and for
    the functional SpGEMM path.

    Attributes:
        dense: the dense (zeros included) matrix.
        encoding: the bitmap encoding (values condensed column- or
            row-major depending on which GEMM operand this matrix is).
    """

    dense: np.ndarray
    encoding: BitmapMatrix

    @classmethod
    def from_dense(cls, dense: np.ndarray, order: str = "col") -> "SparseMatrix":
        """Encode a dense matrix.

        Args:
            dense: 2-D array; zeros are treated as absent values.
            order: ``"col"`` when the matrix is the left operand of an
                outer-product GEMM (matrix A), ``"row"`` for the right
                operand (matrix B).
        """
        dense = check_2d(dense, "dense")
        return cls(dense=dense.copy(), encoding=BitmapMatrix.from_dense(dense, order))

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of the matrix."""
        return self.dense.shape

    @property
    def nnz(self) -> int:
        """Number of non-zero elements."""
        return self.encoding.nnz

    @property
    def density(self) -> float:
        """Fraction of non-zero elements."""
        return self.encoding.density

    @property
    def sparsity(self) -> float:
        """Fraction of zero elements."""
        return self.encoding.sparsity

    def two_level(self, tile_shape: tuple[int, int]) -> TwoLevelBitmapMatrix:
        """Re-encode with the hierarchical two-level bitmap (Figure 9)."""
        return TwoLevelBitmapMatrix.from_dense(
            self.dense, tile_shape=tile_shape, order=self.encoding.order
        )

    def footprint_bytes(self) -> int:
        """Compressed storage size in bytes."""
        return self.encoding.footprint_bytes()


@dataclass(frozen=True)
class SpGemmResult:
    """Result of :func:`spgemm`.

    Attributes:
        dense: the dense numeric product.
        stats: instruction counts / traffic of the simulated execution.
    """

    dense: np.ndarray
    stats: DeviceStats

    @property
    def instruction_speedup(self) -> float:
        """OHMMA instructions of a dense execution / issued instructions."""
        return self.stats.instruction_speedup


@dataclass(frozen=True)
class SpConvResult:
    """Result of :func:`spconv`.

    Attributes:
        output: (N, OH, OW) output feature map.
        stats: combined im2col + SpGEMM statistics.
    """

    output: np.ndarray
    stats: SpConvStats


def spgemm(
    a: "SparseMatrix | np.ndarray",
    b: "SparseMatrix | np.ndarray",
    config: WarpTileConfig | None = None,
    backend: str = "auto",
) -> SpGemmResult:
    """Dual-side sparse matrix multiplication ``a @ b``.

    Both operands may be arbitrarily sparse (including fully dense); the
    result is numerically exact.  The returned statistics describe the
    instruction stream the dual-side sparse Tensor Core would execute.

    Args:
        a: left operand (M x K) — a dense ndarray, a
            :class:`SparseMatrix` (encode with ``order="col"``), a
            :class:`~repro.formats.hierarchical.TwoLevelBitmapMatrix` or
            an :class:`~repro.core.operands.EncodedOperand`.  Pre-encoded
            operands skip the per-call encoding work with identical
            results (encode once, multiply many times).
        b: right operand (K x N), same accepted types (``order="row"``).
        config: warp-tile geometry; defaults to the paper's 32x32x16.
        backend: ``"auto"`` (default) runs the blocked engine;
            ``"blocked"`` / ``"vectorized"`` / ``"reference"`` select
            one path explicitly.
    """
    result = device_spgemm(a, b, config=config, backend=backend)
    return SpGemmResult(dense=result.output, stats=result.stats)


def spgemm_batched(
    a_batch,
    b_batch=None,
    config: WarpTileConfig | None = None,
    backend: str = "auto",
) -> list[SpGemmResult]:
    """Run a whole batch of dual-side sparse GEMMs in one call.

    Accepts either two stacked 3-D arrays (``a_batch[i] @ b_batch[i]``)
    or a single sequence of ``(a, b)`` pairs (each entry a 2-D array or
    :class:`SparseMatrix`).  Shapes may differ between pairs — e.g. the
    per-layer GEMMs of a whole model.

    Args:
        a_batch: (B, M, K) array, or sequence of ``(a, b)`` pairs when
            ``b_batch`` is omitted.
        b_batch: (B, K, N) array or sequence of right operands.
        config: warp-tile geometry shared by the whole batch.
        backend: forwarded to :func:`spgemm`.

    Returns:
        One :class:`SpGemmResult` per pair, in batch order.
    """
    if b_batch is None:
        pairs = [(a, b) for a, b in a_batch]
    else:
        a_seq = list(a_batch)
        b_seq = list(b_batch)
        if len(a_seq) != len(b_seq):
            raise ShapeError(
                f"batch lengths differ: {len(a_seq)} left operands vs "
                f"{len(b_seq)} right operands"
            )
        pairs = list(zip(a_seq, b_seq))
    return [spgemm(a, b, config=config, backend=backend) for a, b in pairs]


def sparse_im2col(
    feature_map: np.ndarray,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    backend: str = "vectorized",
) -> BitmapIm2colResult:
    """Bitmap-based implicit sparse im2col (Figure 11).

    Returns the lowered feature map both densely and in the condensed
    bitmap encoding, plus the register-level operation counts.
    ``backend="vectorized"`` (default) runs the word-level engine;
    ``backend="reference"`` the original per-row loop — bit-identical
    either way.
    """
    return bitmap_im2col(
        feature_map, kernel, stride=stride, padding=padding, backend=backend
    )


def spconv(
    feature_map: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    config: WarpTileConfig | None = None,
    backend: str = "auto",
) -> SpConvResult:
    """Dual-side sparse convolution (sparse im2col + outer-product SpGEMM).

    Args:
        feature_map: (C, H, W) input feature map.
        weights: (N, C, K, K) convolution weights, or a
            :class:`~repro.core.spconv.CompiledConvWeights` encoded once
            for serving many images (bit-identical results).
        stride: spatial stride.
        padding: symmetric zero padding.
        config: warp-tile geometry forwarded to the SpGEMM stage.
        backend: execution backend of the whole pipeline (im2col *and*
            SpGEMM) — ``"auto"`` (default), ``"blocked"``,
            ``"vectorized"`` or ``"reference"``.
    """
    result = sparse_conv2d(
        feature_map,
        weights,
        stride=stride,
        padding=padding,
        config=config,
        backend=backend,
    )
    return SpConvResult(output=result.output, stats=result.stats)
