"""Serving-throughput sweep over compiled inference sessions.

Complements the ``functional`` experiment: instead of one image through
one-shot pipelines, each selected model is *compiled* once
(:func:`repro.nn.session.compile_model` — weights materialised and
encoded once) and then serves batches of increasing size through the
batch-folding session runtime.  Rows report the exact fused instruction
counts, the issue-limited device time on the selected GPU preset and the
modelled serving throughput derived from it.

All reported fields are deterministic functions of (models, batch sizes,
scale, seed, GPU preset), so the rows are golden-snapshotted and cached
like every other experiment; *wall-clock* throughput of the host
implementation is gated separately in
``benchmarks/test_serve_throughput.py``.
"""

from __future__ import annotations

from repro.core.spgemm_warp import WarpTileConfig
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.nn.models import DEFAULT_MODELS
from repro.nn.session import SessionRun, compile_model

#: Batch sizes of the default sweep.
DEFAULT_BATCH_SIZES = (1, 2, 4, 8)


def run_serve(
    models: "tuple[str, ...] | None" = None,
    batch_sizes: "tuple[int, ...] | None" = None,
    scale: float = 1.0,
    seed: int = 2021,
    config: GpuConfig | None = None,
    tile_config: WarpTileConfig | None = None,
    backend: str = "auto",
    pruning: "str | None" = None,
) -> list[dict]:
    """Serve batches through compiled sessions and tabulate throughput.

    Args:
        models: model names to compile (defaults to the whole zoo,
            :data:`repro.nn.models.DEFAULT_MODELS`).
        batch_sizes: batch sizes to serve per model (defaults to
            :data:`DEFAULT_BATCH_SIZES`).
        scale: data-dimension shrink factor forwarded to the session.
        seed: RNG seed of the synthetic pruned operands.
        config: GPU configuration used to convert exact OHMMA counts to
            issue-limited device time and modelled images/sec.
        tile_config: warp-tile geometry override.
        backend: SpGEMM backend of every session (``"auto"``: the
            blocked engine).
        pruning: named pruning method from
            :data:`repro.pruning.methods.PRUNING_METHODS` applied to
            every model's weights instead of its native pattern
            (``None`` — reported as ``native`` in the rows).

    Returns:
        One row per (model, batch size) with the fused batch statistics,
        per-image issue time and modelled serving throughput, plus the
        encode-once weight footprint of each compiled session.
    """
    config = config or V100_CONFIG
    names = models or DEFAULT_MODELS
    sizes = [int(batch) for batch in (batch_sizes or DEFAULT_BATCH_SIZES)]
    rows: list[dict] = []
    for name in names:
        compiled = compile_model(
            name,
            scale=scale,
            seed=seed,
            tile_config=tile_config,
            backend=backend,
            pruning=pruning,
        )
        weight_dense = compiled.weight_bytes_dense()
        weight_encoded = compiled.weight_bytes_encoded()
        # Every batch of size b serves images 0..b-1, so one run at the
        # largest size yields every smaller batch's exact statistics as
        # per-image prefix sums — no overlapping re-execution.
        largest = compiled.run(max(sizes))
        for batch in sizes:
            run = SessionRun(
                model=largest.model,
                images=largest.images[:batch],
                per_image=largest.per_image[:batch],
            )
            issue_us = config.cycles_to_us(
                run.ohmma_issued / config.ohmma_slots_per_cycle
            )
            rows.append(
                {
                    "model": name,
                    "pruning": pruning or "native",
                    "batch": batch,
                    "layers": len(compiled.layers),
                    "ohmma_issued": run.ohmma_issued,
                    "ohmma_dense": run.ohmma_dense,
                    "instruction_speedup": round(run.instruction_speedup, 3),
                    "issue_time_us": round(issue_us, 4),
                    "per_image_issue_us": round(issue_us / batch, 4),
                    "modelled_images_per_sec": round(
                        batch / (issue_us * 1e-6), 1
                    )
                    if issue_us
                    else 0.0,
                    "weight_bytes_dense": weight_dense,
                    "weight_bytes_encoded": weight_encoded,
                    # Weight-side encodes a per-image pipeline would have
                    # re-run for this batch; the session ran them 0 times.
                    "weight_encodes_skipped": batch * len(compiled.layers),
                }
            )
    return rows
