"""Full-resolution functional dual-side convolution sweep (``spconv``).

The counterpart of Table III that *executes* instead of estimating: the
paper's Table III ResNet-18 layer (feature map 56x56, 3x3 kernel, 128
channels) and the VGG-16 conv3-1 layer (56x56, 128 -> 256 channels) are
run through the functional dual-side pipeline — word-level bitmap im2col
chained into the outer-product SpGEMM engine — at their real spatial
resolution (no ``scale`` shrinking), swept over the Table III feature-map
sparsity grid.

Each row reports the exact pipeline statistics (im2col register
operations and condensed-value traffic, issued vs dense OHMMA counts,
warp-tile skips), the calibrated im2col cost relative to a dense
lowering (via :meth:`repro.kernels.im2col_cost.Im2colCostModel.cost`),
the issue-limited device time on the selected GPU, and a numeric
verification bit against the dense im2col + GEMM result.

Such runs were impractical before the vectorized im2col engines: the
per-row Python loops took ~10 s per layer evaluation at this size, which
is why ``run_table3`` ships a ``scale`` escape hatch.  This driver has
none.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.im2col_dense import Im2colStats, conv2d_via_im2col
from repro.core.spconv import sparse_conv2d
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.kernels.im2col_cost import Im2colCostModel
from repro.kernels.layer_spec import ConvLayerSpec
from repro.sparsity.generators import random_sparse_matrix

#: Feature-map sparsity grid of Table III.
SPARSITY_POINTS = (0.0, 0.25, 0.5, 0.75, 0.99, 0.999)

#: Weight sparsity applied to every layer (AGP-style conv pruning level).
DEFAULT_WEIGHT_SPARSITY = 0.75


def spconv_layers() -> tuple[ConvLayerSpec, ...]:
    """The full-resolution layers the ``spconv`` experiment executes."""
    return (
        ConvLayerSpec(
            name="resnet18-conv (H/W=56, K=3, C=128)",
            in_channels=128,
            out_channels=128,
            height=56,
            width=56,
            kernel=3,
            stride=1,
            padding=1,
        ),
        ConvLayerSpec(
            name="vgg16-conv3-1 (H/W=56, K=3, C=128->256)",
            in_channels=128,
            out_channels=256,
            height=56,
            width=56,
            kernel=3,
            stride=1,
            padding=1,
        ),
    )


def run_spconv(
    seed: int = 2021,
    sparsities: Sequence[float] = SPARSITY_POINTS,
    weight_sparsity: float = DEFAULT_WEIGHT_SPARSITY,
    backend: str = "auto",
    config: GpuConfig | None = None,
) -> list[dict]:
    """Execute the full-resolution dual-side convolutions and tabulate.

    Args:
        seed: RNG seed for the synthetic feature maps and pruned weights.
        sparsities: feature-map sparsity grid (zero fraction of the
            activations).
        weight_sparsity: zero fraction of the pruned weights.
        backend: pipeline backend, forwarded to
            :func:`~repro.core.spconv.sparse_conv2d`.  ``"auto"`` (the
            default, as in ``sparse_conv2d`` and every session) is the
            blocked engine, on its whole-matrix path at these shapes;
            ``"vectorized"`` pins the per-k engine and ``"reference"``
            the oracle loops (orders of magnitude slower at this size).
            The statistics do not depend on the engine, so every row is
            identical across them.
        config: GPU configuration for the im2col cost calibration and
            the issue-limited device time.

    Returns:
        One row per (layer, sparsity point) with exact pipeline
        statistics and the numeric-verification bit.
    """
    config = config or V100_CONFIG
    cost_model = Im2colCostModel(config)
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    for spec in spconv_layers():
        weights = random_sparse_matrix(
            (spec.out_channels, spec.in_channels * spec.kernel * spec.kernel),
            1.0 - weight_sparsity,
            rng,
        ).reshape(spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        for sparsity in sparsities:
            feature_map = random_sparse_matrix(
                (spec.in_channels * spec.height, spec.width), 1.0 - sparsity, rng
            ).reshape(spec.in_channels, spec.height, spec.width)
            result = sparse_conv2d(
                feature_map,
                weights,
                stride=spec.stride,
                padding=spec.padding,
                backend=backend,
            )
            stats = result.stats
            lowered_rows, lowered_cols = stats.lowered_shape
            dense_stats = Im2colStats(
                element_reads=lowered_rows * lowered_cols,
                element_writes=lowered_rows * lowered_cols,
                lowered_shape=stats.lowered_shape,
            )
            expected = conv2d_via_im2col(
                feature_map, weights, spec.stride, spec.padding
            )
            issue_cycles = (
                stats.gemm.warp.ohmma_issued / config.ohmma_slots_per_cycle
            )
            rows.append(
                {
                    "layer": spec.name,
                    "sparsity_percent": sparsity * 100.0,
                    "activation_sparsity": round(stats.activation_sparsity, 4),
                    "weight_sparsity": round(stats.weight_sparsity, 4),
                    "lowered_mkn": "x".join(
                        str(dim)
                        for dim in (lowered_rows, lowered_cols, spec.out_channels)
                    ),
                    "im2col_register_ops": stats.im2col.register_ops,
                    "im2col_value_reads": stats.im2col.value_reads,
                    "im2col_vs_dense_cost": round(
                        cost_model.cost(stats.im2col)
                        / cost_model.cost(dense_stats),
                        4,
                    ),
                    "ohmma_issued": stats.gemm.warp.ohmma_issued,
                    "ohmma_dense": stats.gemm.warp.ohmma_dense,
                    "instruction_speedup": round(stats.gemm.instruction_speedup, 3),
                    "tile_skip_fraction": round(stats.gemm.tile_skip_fraction, 4),
                    "issue_time_us": round(config.cycles_to_us(issue_cycles), 4),
                    "matches_dense": bool(
                        np.allclose(result.output, expected, atol=1e-6)
                    ),
                }
            )
    return rows
