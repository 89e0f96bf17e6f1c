"""Dual-side sparse convolution (Section IV).

The convolution pipeline the paper proposes is:

1. encode the (sparse) input feature map in bitmap format,
2. run the bitmap-based implicit sparse im2col to obtain the lowered
   feature map directly in condensed/bitmap form,
3. flatten and bitmap-encode the (sparse) weights, and
4. multiply the two with the outer-product SpGEMM, skipping work on both
   the activation and the weight side.

This module provides the functional pipeline and its combined statistics;
the latency models live in :mod:`repro.kernels.conv_methods`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.im2col_bitmap import BitmapIm2colStats, bitmap_im2col
from repro.core.im2col_dense import flatten_weights
from repro.core.operands import EncodedOperand
from repro.core.reference import conv_output_shape
from repro.core.spgemm_device import BACKENDS, DeviceStats, device_spgemm
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ConfigError, ShapeError
from repro.sparsity.statistics import sparsity as sparsity_of


@dataclass(frozen=True)
class SpConvStats:
    """Combined statistics of a dual-side sparse convolution.

    Attributes:
        im2col: operation counts of the bitmap-based sparse im2col.
        gemm: instruction counts and traffic of the SpGEMM stage.
        activation_sparsity: zero fraction of the input feature map.
        weight_sparsity: zero fraction of the weights.
        lowered_shape: shape of the lowered feature map.
    """

    im2col: BitmapIm2colStats
    gemm: DeviceStats
    activation_sparsity: float
    weight_sparsity: float
    lowered_shape: tuple[int, int]


@dataclass(frozen=True)
class SparseConvResult:
    """Numeric output + statistics of a dual-side sparse convolution."""

    output: np.ndarray
    stats: SpConvStats


@dataclass(frozen=True)
class CompiledConvWeights:
    """Convolution weights flattened and encoded once for reuse.

    Pruned weights are static for the lifetime of a model, yet
    :func:`sparse_conv2d` historically re-flattened and re-encoded them
    on every call.  Compiling them captures the flattened GEMM operand
    as a persistent :class:`~repro.core.operands.EncodedOperand` (plus
    the geometry and sparsity the pipeline reports), so repeated
    convolutions — one per served image — skip all weight-side work.
    Results are bit-identical to passing the dense weights.

    Attributes:
        shape: original (N, C, K, K) weight shape.
        operand: the flattened (K*K*C, N) right-hand GEMM operand.
        weight_sparsity: zero fraction of the weights.
    """

    shape: tuple[int, int, int, int]
    operand: EncodedOperand
    weight_sparsity: float

    @classmethod
    def from_dense(
        cls, weights: np.ndarray, persistent: bool = True
    ) -> "CompiledConvWeights":
        """Flatten and encode dense (N, C, K, K) convolution weights.

        ``persistent=False`` marks the operand as throwaway: the blocked
        engine then skips building session-lifetime K-panel caches —
        the right choice when the weights serve a single call.
        """
        weights = np.asarray(weights)
        if weights.ndim != 4:
            raise ShapeError(f"weights must be (N, C, K, K), got {weights.shape}")
        n_filters = weights.shape[0]
        return cls(
            shape=weights.shape,
            operand=EncodedOperand(
                flatten_weights(weights), "b", persistent=persistent
            ),
            weight_sparsity=sparsity_of(weights.reshape(n_filters, -1)),
        )

    @property
    def n_filters(self) -> int:
        """Number of output channels N."""
        return self.shape[0]

    @property
    def in_channels(self) -> int:
        """Number of input channels C."""
        return self.shape[1]

    @property
    def kernel(self) -> int:
        """Square kernel size K."""
        return self.shape[-1]


def sparse_conv2d(
    feature_map: np.ndarray,
    weights,
    stride: int = 1,
    padding: int = 0,
    config: WarpTileConfig | None = None,
    backend: str = "auto",
) -> SparseConvResult:
    """Dual-side sparse convolution via bitmap im2col + outer-product SpGEMM.

    Args:
        feature_map: dense (C, H, W) input feature map (zeros included).
        weights: dense (N, C, K, K) convolution weights, or a
            :class:`CompiledConvWeights` holding the flattened operand
            encoded once — the fast path for serving many images through
            the same pruned layer (bit-identical results).
        stride: spatial stride.
        padding: symmetric zero padding.
        config: warp tile geometry forwarded to the SpGEMM.
        backend: execution backend of the *whole* pipeline.  Any
            non-``"reference"`` value chains the word-level im2col
            engine into the selected SpGEMM engine — ``"auto"`` (the
            default) is the blocked engine; ``"reference"`` runs the
            original Python loops end to end.  All backends produce
            identical statistics (bit-identical output for
            ``"vectorized"`` vs ``"reference"``).

    Returns:
        The (N, OH, OW) output feature map plus pipeline statistics.  The
        output is numerically equal to the dense reference convolution.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {list(BACKENDS)}"
        )
    feature_map = np.asarray(feature_map)
    if not isinstance(weights, CompiledConvWeights):
        # Dense weights serve this one call only: a throwaway operand
        # keeps the engines on their zero-copy one-shot paths.
        weights = CompiledConvWeights.from_dense(weights, persistent=False)
    if feature_map.ndim != 3:
        raise ShapeError(f"feature_map must be (C, H, W), got {feature_map.shape}")
    if weights.in_channels != feature_map.shape[0]:
        raise ShapeError(
            f"channel mismatch: feature map has {feature_map.shape[0]} channels, "
            f"weights expect {weights.in_channels}"
        )
    kernel = weights.kernel
    channels, height, width = feature_map.shape
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)

    # The im2col engines only know "vectorized" vs "reference"; every
    # SpGEMM backend other than the reference loop uses the word-level
    # im2col engine (their outputs are bit-identical either way).
    im2col_backend = "reference" if backend == "reference" else "vectorized"
    im2col_result = bitmap_im2col(
        feature_map, kernel, stride, padding, backend=im2col_backend
    )
    gemm_result = device_spgemm(
        im2col_result.lowered, weights.operand, config=config, backend=backend
    )

    n_filters = weights.n_filters
    output = (
        gemm_result.output.reshape(out_h, out_w, n_filters).transpose(2, 0, 1)
    )
    stats = SpConvStats(
        im2col=im2col_result.stats,
        gemm=gemm_result.stats,
        activation_sparsity=sparsity_of(feature_map.reshape(channels, -1)),
        weight_sparsity=weights.weight_sparsity,
        lowered_shape=im2col_result.lowered.shape,
    )
    return SparseConvResult(output=output, stats=stats)
