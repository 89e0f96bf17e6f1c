"""Model-level inference evaluation (the driver behind Figure 22).

For every representative layer of a model the evaluator runs all
execution methods (five for CNNs, three for BERT/RNN), normalises to the
paper's baseline (Dense Implicit for CNNs, Dense GEMM otherwise) and
aggregates a full-model speedup by summing per-layer latencies.

For the NLP models the dual-side method is evaluated on *synthetic pruned
weight matrices* rather than on the i.i.d.-sparsity expectation: block
movement pruning (BERT) and magnitude pruning of recurrent layers (RNN)
leave whole blocks / bands of the weight matrix empty, and that
clustering is exactly what the two-level bitmap converts into whole-warp
skips (Section VI-D).  The uniform-sparsity expectation would understate
the effect, so the evaluator generates the pattern and costs it from the
exact statistics of :func:`repro.core.operands.device_stats_from_operands`
instead: instruction counts and compressed bytes, in which an empty warp
tile stores no element bitmap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.config import GpuConfig
from repro.kernels.base import KernelEstimate
from repro.kernels.conv_methods import (
    CONV_METHODS,
    GEMM_METHODS,
    ConvMethod,
    ConvMethodModel,
    GemmMethod,
    GemmMethodModel,
)
from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec
from repro.nn.models import ModelDefinition
from repro.pruning.movement import block_movement_prune
from repro.sparsity.generators import random_sparse_matrix


@dataclass(frozen=True)
class LayerResult:
    """Per-layer evaluation result.

    Attributes:
        layer: layer name.
        estimates: method name -> kernel estimate.
        baseline: the method everything is normalised to.
    """

    layer: str
    estimates: dict[str, KernelEstimate]
    baseline: str

    def speedup(self, method: str) -> float:
        """Speedup of ``method`` over the baseline for this layer."""
        return self.estimates[self.baseline].time_us / self.estimates[method].time_us

    def speedups(self) -> dict[str, float]:
        """Speedups of all methods over the baseline."""
        return {method: self.speedup(method) for method in self.estimates}


@dataclass(frozen=True)
class ModelResult:
    """Whole-model evaluation result.

    Attributes:
        model: model name.
        baseline: normalisation method.
        layer_results: per-layer results in model order.
    """

    model: str
    baseline: str
    layer_results: tuple[LayerResult, ...]

    def total_time_us(self, method: str) -> float:
        """Summed latency of the representative layers under ``method``."""
        return sum(result.estimates[method].time_us for result in self.layer_results)

    def model_speedup(self, method: str) -> float:
        """Full-model speedup of ``method`` over the baseline."""
        return self.total_time_us(self.baseline) / self.total_time_us(method)

    def methods(self) -> tuple[str, ...]:
        """Evaluated method names."""
        return tuple(self.layer_results[0].estimates.keys())

    def summary(self) -> dict[str, float]:
        """Model-level speedups of every method."""
        return {method: self.model_speedup(method) for method in self.methods()}


class ModelEvaluator:
    """Evaluates a :class:`ModelDefinition` across execution methods."""

    def __init__(self, config: GpuConfig | None = None, seed: int = 2021) -> None:
        self.conv_model = ConvMethodModel(config)
        self.gemm_model = GemmMethodModel(config)
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # CNN path
    # ------------------------------------------------------------------ #
    def evaluate_conv_layer(self, spec: ConvLayerSpec) -> LayerResult:
        """Evaluate one convolution layer under the five methods."""
        estimates = self.conv_model.estimate_all(spec)
        return LayerResult(
            layer=spec.name, estimates=estimates, baseline=ConvMethod.DENSE_IMPLICIT
        )

    # ------------------------------------------------------------------ #
    # GEMM path
    # ------------------------------------------------------------------ #
    def _synthetic_pruned_operands(
        self, spec: GemmLayerSpec, pattern: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate (A, B) operands with the weight matrix on the A side.

        The product computed is the transposed layer GEMM
        ``Y^T = W^T @ X^T`` so the pruned weight matrix takes the
        outer product's fine-granularity side.
        """
        weights = self.rng.uniform(0.5, 1.5, size=(spec.k, spec.n))
        if pattern == "blocked":
            weights = block_movement_prune(weights, spec.weight_sparsity, block=32)
        else:
            mask = self.rng.random(weights.shape) >= spec.weight_sparsity
            weights = np.where(mask, weights, 0.0)
        activations = random_sparse_matrix(
            (spec.m, spec.k), 1.0 - spec.activation_sparsity, self.rng
        )
        return weights.T.copy(), activations.T.copy()

    def evaluate_gemm_layer(
        self, spec: GemmLayerSpec, weight_pattern: str = "uniform"
    ) -> LayerResult:
        """Evaluate one GEMM layer under the three methods."""
        estimates = {
            GemmMethod.DENSE: self.gemm_model.dense(spec),
            GemmMethod.SINGLE_SPARSE: self.gemm_model.single_sparse(spec),
        }
        if weight_pattern == "blocked":
            a_operand, b_operand = self._synthetic_pruned_operands(spec, weight_pattern)
            exact = self.gemm_model.dual_sparse.estimate(a_operand, b_operand)
            estimates[GemmMethod.DUAL_SPARSE] = KernelEstimate(
                method=GemmMethod.DUAL_SPARSE,
                timing=exact.timing,
                details=exact.details,
            )
        else:
            estimates[GemmMethod.DUAL_SPARSE] = self.gemm_model.dual_sparse_gemm(spec)
        return LayerResult(
            layer=spec.name, estimates=estimates, baseline=GemmMethod.DENSE
        )

    # ------------------------------------------------------------------ #
    # Whole model
    # ------------------------------------------------------------------ #
    def evaluate(self, model: ModelDefinition) -> ModelResult:
        """Evaluate every representative layer of a model."""
        results: list[LayerResult] = []
        if model.kind == "cnn":
            baseline = ConvMethod.DENSE_IMPLICIT
            for spec in model.conv_layers:
                results.append(self.evaluate_conv_layer(spec))
        else:
            baseline = GemmMethod.DENSE
            for spec in model.gemm_layers:
                results.append(
                    self.evaluate_gemm_layer(spec, weight_pattern=model.weight_pattern)
                )
        return ModelResult(
            model=model.name, baseline=baseline, layer_results=tuple(results)
        )
