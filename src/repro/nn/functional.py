"""Whole-model functional runs through the functional SpGEMM engines.

The model database (:mod:`repro.nn.models`) describes each network as a
list of layer specs with the sparsities the paper's pruning setup
produces.  :func:`run_model_functional` materialises synthetic operands
for every spec and pushes the whole model through the *functional*
dual-side pipeline in one call — sparse im2col + outer-product SpGEMM
for CNN layers, transposed-GEMM SpGEMM for the BERT / RNN layers —
returning per-layer :class:`~repro.core.spgemm_device.DeviceStats`.

Operands come from the independent per-layer streams of
:mod:`repro.nn.synthetic`: weights are a pure function of ``(model,
layer, seed)`` and activations of ``(model, layer, seed, image)``, so
the ``image`` argument selects one served input and the compiled
inference sessions of :mod:`repro.nn.session` reproduce these runs
bit-for-bit while encoding the weights only once.

With the reference Python loop such runs were restricted to toy sizes;
the blocked engine (:mod:`repro.core.engine_blocked`, which
``backend="auto"`` runs on every layer) makes full-resolution
(``scale=1.0``) whole-model runs the default.  The ``scale`` knob
shrinks spatial (CNN) / batch-row (GEMM) dimensions for quick smoke
runs; weight shapes and sparsity patterns are never scaled, so the
instruction statistics remain representative of the pruned model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.spconv import sparse_conv2d
from repro.core.spgemm_device import DeviceStats, device_spgemm
from repro.core.spgemm_warp import WarpTileConfig, ohmma_speedup
from repro.errors import ConfigError
from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec
from repro.nn.models import ModelDefinition, get_model
from repro.nn.synthetic import (
    conv_feature_map,
    conv_layer_weights,
    gemm_activations,
    gemm_layer_weights,
)
from repro.sparsity.statistics import sparsity as sparsity_of


@dataclass(frozen=True)
class FunctionalLayerRun:
    """Functional execution record of one model layer.

    Attributes:
        layer: layer name from the model database.
        kind: ``"conv"`` or ``"gemm"``.
        gemm_shape: (M, K, N) of the executed (possibly scaled) GEMM.
        weight_sparsity: measured zero fraction of the generated weights.
        activation_sparsity: measured zero fraction of the activations.
        stats: device-level statistics of the SpGEMM stage.
        output: numeric layer output — the (N, OH, OW) feature map for
            conv layers, the transposed (N, M) product for GEMM layers.
            Only kept when requested (``keep_outputs=True``); excluded
            from equality comparisons.
    """

    layer: str
    kind: str
    gemm_shape: tuple[int, int, int]
    weight_sparsity: float
    activation_sparsity: float
    stats: DeviceStats
    output: "np.ndarray | None" = field(default=None, compare=False, repr=False)

    @property
    def instruction_speedup(self) -> float:
        """Dense / sparse OHMMA ratio of this layer."""
        return self.stats.instruction_speedup


@dataclass(frozen=True)
class FunctionalModelRun:
    """Functional execution record of a whole model.

    Attributes:
        model: model name.
        layers: per-layer records in model order.
    """

    model: str
    layers: tuple[FunctionalLayerRun, ...]

    @property
    def ohmma_issued(self) -> int:
        """Total OHMMA instructions issued across the model."""
        return sum(layer.stats.warp.ohmma_issued for layer in self.layers)

    @property
    def ohmma_dense(self) -> int:
        """Total OHMMA instructions a dense execution would issue."""
        return sum(layer.stats.warp.ohmma_dense for layer in self.layers)

    @property
    def instruction_speedup(self) -> float:
        """Whole-model dense / sparse OHMMA ratio."""
        return ohmma_speedup(self.ohmma_dense, self.ohmma_issued)


def _run_conv_layer(
    spec: ConvLayerSpec,
    model_name: str,
    seed: int,
    image: int,
    scale: float,
    config: WarpTileConfig | None,
    backend: str,
    keep_output: bool,
    pruning: "str | None" = None,
) -> FunctionalLayerRun:
    """Materialise one convolution layer and run the sparse pipeline."""
    feature_map = conv_feature_map(model_name, spec, seed, image=image, scale=scale)
    weights = conv_layer_weights(model_name, spec, seed, pruning=pruning)
    result = sparse_conv2d(
        feature_map,
        weights,
        stride=spec.stride,
        padding=spec.padding,
        config=config,
        backend=backend,
    )
    lowered_rows, lowered_cols = result.stats.lowered_shape
    return FunctionalLayerRun(
        layer=spec.name,
        kind="conv",
        gemm_shape=(lowered_rows, lowered_cols, spec.out_channels),
        weight_sparsity=result.stats.weight_sparsity,
        activation_sparsity=result.stats.activation_sparsity,
        stats=result.stats.gemm,
        output=result.output if keep_output else None,
    )


def _run_gemm_layer(
    spec: GemmLayerSpec,
    model_name: str,
    seed: int,
    image: int,
    scale: float,
    config: WarpTileConfig | None,
    backend: str,
    weight_pattern: str,
    keep_output: bool,
    pruning: "str | None" = None,
) -> FunctionalLayerRun:
    """Materialise one GEMM layer and run the transposed-layer SpGEMM.

    As in :class:`repro.nn.inference.ModelEvaluator`, the executed product
    is ``Y^T = W^T @ X^T`` so the pruned weight matrix sits on the
    outer product's fine-granularity A side.  The transposes are passed
    as views — the engines never mutate their operands, so no
    double materialisation is needed.
    """
    weights = gemm_layer_weights(
        model_name, spec, seed, weight_pattern, pruning=pruning
    )
    activations = gemm_activations(model_name, spec, seed, image=image, scale=scale)
    result = device_spgemm(
        weights.T, activations.T, config=config, backend=backend
    )
    return FunctionalLayerRun(
        layer=spec.name,
        kind="gemm",
        gemm_shape=(spec.n, spec.k, activations.shape[0]),
        weight_sparsity=sparsity_of(weights),
        activation_sparsity=sparsity_of(activations),
        stats=result.stats,
        output=result.output if keep_output else None,
    )


def run_model_functional(
    model: "ModelDefinition | str",
    scale: float = 1.0,
    seed: int = 2021,
    config: WarpTileConfig | None = None,
    backend: str = "auto",
    image: int = 0,
    keep_outputs: bool = False,
    pruning: "str | None" = None,
) -> FunctionalModelRun:
    """Execute every representative layer of a model functionally.

    Args:
        model: a :class:`ModelDefinition` or a registry name such as
            ``"ResNet-18"`` or ``"BERT-base Encoder"``.
        scale: shrink factor for the data-sized dimensions (CNN spatial
            extent, GEMM batch rows); ``1.0`` runs paper-sized layers.
        seed: RNG seed for the synthetic pruned operands.
        config: warp-tile geometry shared by all layers.
        backend: SpGEMM backend — ``"auto"`` (default: the blocked
            engine), ``"blocked"``, ``"vectorized"`` or
            ``"reference"``.
        image: which served input to draw the activations for (weights
            do not depend on it).  ``run_model_functional(..., image=i)``
            is the per-image oracle of the batch-folding sessions in
            :mod:`repro.nn.session`.
        keep_outputs: retain every layer's numeric output on the run
            records (off by default — whole-model outputs are large).
        pruning: named pruning method from
            :data:`repro.pruning.methods.PRUNING_METHODS` applied to the
            synthetic weights instead of the model's native pattern
            (``None`` keeps the native unstructured / blocked draws).

    Returns:
        Per-layer and aggregate instruction statistics of the whole
        model run.
    """
    if isinstance(model, str):
        model = get_model(model)
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must be in (0, 1], got {scale}")
    layers: list[FunctionalLayerRun] = []
    if model.kind == "cnn":
        for spec in model.conv_layers:
            layers.append(
                _run_conv_layer(
                    spec, model.name, seed, image, scale, config, backend,
                    keep_outputs, pruning,
                )
            )
    else:
        for spec in model.gemm_layers:
            layers.append(
                _run_gemm_layer(
                    spec, model.name, seed, image, scale, config, backend,
                    model.weight_pattern, keep_outputs, pruning,
                )
            )
    return FunctionalModelRun(model=model.name, layers=tuple(layers))
