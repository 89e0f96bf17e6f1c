"""Functional whole-model sweeps through the vectorized SpGEMM engine.

Complements the analytic Figure 22 driver: instead of cost-model
estimates, every representative layer of the selected models — by
default the *whole* Figure 22 / Table II zoo, CNNs and GEMM models
alike — is actually *executed* by the functional dual-side pipeline
(sparse im2col + outer-product SpGEMM) at full resolution
(``scale=1.0``), and the exact per-layer instruction statistics are
reported.  The ``pruning`` knob swaps every model's native pruning
pattern for any named method of the pruning suite.  Such runs were
impractical with the seed's per-warp-tile Python loop; the vectorized
engine (:mod:`repro.core.engine`) brought them into the seconds range
at ``scale=0.125``, and the blocked engine
(:mod:`repro.core.engine_blocked`) lifts the paper-sized layers into
the same budget.
"""

from __future__ import annotations

from repro.core.spgemm_warp import WarpTileConfig
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.nn.functional import run_model_functional
from repro.nn.models import DEFAULT_MODELS


def run_functional_models(
    models: tuple[str, ...] | None = None,
    scale: float = 1.0,
    seed: int = 2021,
    config: GpuConfig | None = None,
    tile_config: WarpTileConfig | None = None,
    backend: str = "auto",
    pruning: "str | None" = None,
) -> list[dict]:
    """Execute whole models functionally and tabulate exact statistics.

    Args:
        models: model names to run (defaults to the whole zoo,
            :data:`repro.nn.models.DEFAULT_MODELS`).
        scale: data-dimension shrink factor forwarded to
            :func:`repro.nn.functional.run_model_functional`.
        seed: RNG seed for the synthetic pruned operands.
        config: GPU configuration used to convert the exact OHMMA counts
            to an issue-limited device time per model.
        tile_config: warp-tile geometry override.
        backend: SpGEMM backend (``"auto"``, ``"blocked"``,
            ``"vectorized"`` or ``"reference"``).
        pruning: named pruning method from
            :data:`repro.pruning.methods.PRUNING_METHODS` applied to
            every model's weights instead of its native pattern
            (``None`` — reported as ``native`` in the rows).

    Returns:
        One row per (model, layer) plus a ``full-model`` row per model,
        each with the executed GEMM shape, measured sparsities, issued /
        dense OHMMA counts and the exact instruction speedup.
    """
    config = config or V100_CONFIG
    names = models or DEFAULT_MODELS
    rows: list[dict] = []
    for name in names:
        run = run_model_functional(
            name, scale=scale, seed=seed, config=tile_config, backend=backend,
            pruning=pruning,
        )
        for layer in run.layers:
            rows.append(
                {
                    "model": name,
                    "pruning": pruning or "native",
                    "layer": layer.layer,
                    "gemm_mkn": "x".join(str(d) for d in layer.gemm_shape),
                    "weight_sparsity": round(layer.weight_sparsity, 4),
                    "activation_sparsity": round(layer.activation_sparsity, 4),
                    "ohmma_issued": layer.stats.warp.ohmma_issued,
                    "ohmma_dense": layer.stats.warp.ohmma_dense,
                    "instruction_speedup": round(layer.instruction_speedup, 3),
                    "issue_time_us": round(
                        config.cycles_to_us(
                            layer.stats.warp.ohmma_issued
                            / config.ohmma_slots_per_cycle
                        ),
                        4,
                    ),
                }
            )
        issue_cycles = run.ohmma_issued / config.ohmma_slots_per_cycle
        rows.append(
            {
                "model": name,
                "pruning": pruning or "native",
                "layer": "full-model",
                "gemm_mkn": "-",
                "weight_sparsity": "-",
                "activation_sparsity": "-",
                "ohmma_issued": run.ohmma_issued,
                "ohmma_dense": run.ohmma_dense,
                "instruction_speedup": round(run.instruction_speedup, 3),
                "issue_time_us": round(config.cycles_to_us(issue_cycles), 4),
            }
        )
    return rows
