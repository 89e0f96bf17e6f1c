"""Serving-daemon sweep: dynamic batching under a Poisson request load.

Complements the ``serve`` experiment: instead of handing the session
runtime pre-formed batches, each cell stands up a full
:class:`~repro.serving.daemon.ServingDaemon` — request queue, deadline
flushing, admission control, worker sharding — and drives it with a
seeded Poisson arrival schedule on the virtual clock.  Rows report what
a serving operator watches: completion/rejection counts, realised batch
sizes and flush causes, exact p50/p95/p99 request latencies and the
modelled throughput over the makespan.

Every quantity is a deterministic function of (model, batch cap,
deadline, workers, queue depth, schedule seed, GPU preset) — the daemon
never reads wall time — so the rows are golden-snapshotted and cached
like every other experiment.  Wall-clock daemon throughput is gated
separately in ``benchmarks/test_serve_throughput.py``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.spgemm_warp import WarpTileConfig
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.nn.models import DEFAULT_MODELS
from repro.serving.arrivals import poisson_arrivals
from repro.serving.core import FLUSH_DEADLINE, FLUSH_FULL
from repro.serving.daemon import ServingDaemon
from repro.serving.pool import SessionPool

#: Default sweep axes: one realistic operating point per axis; the
#: registry marks every axis sweepable for wider grids.
DEFAULT_BATCH_CAPS = (4,)
DEFAULT_DEADLINES_US = (1_000.0,)
DEFAULT_WORKER_COUNTS = (2,)


def run_serve_daemon(
    models: "Sequence[str] | None" = None,
    batch_caps: "Sequence[int] | None" = None,
    deadlines_us: "Sequence[float] | None" = None,
    workers_counts: "Sequence[int] | None" = None,
    queue_depth: int = 32,
    requests: int = 12,
    mean_gap_us: float = 400.0,
    image_pool: int = 8,
    scale: "float | None" = None,
    seed: int = 2021,
    config: "GpuConfig | None" = None,
    tile_config: "WarpTileConfig | None" = None,
    backend: str = "auto",
    pruning: "str | None" = None,
) -> list[dict]:
    """Serve seeded request schedules through daemon configurations.

    Args:
        models: model names to serve (defaults to the whole zoo).
        batch_caps: dynamic-batching size caps to sweep.
        deadlines_us: flush deadlines (microseconds) to sweep.
        workers_counts: logical worker counts to sweep.
        queue_depth: per-model admission bound on pending requests.
        requests: schedule length per cell.
        mean_gap_us: mean Poisson inter-arrival gap (microseconds).
        image_pool: images are drawn from ``0..image_pool-1``.
        scale: uniform data scale, or ``None`` for each model's
            ``benchmark_scale`` metadata.
        seed: seed of both the synthetic operands and the arrival
            schedule.
        config: GPU preset for the modelled service time.
        tile_config: warp-tile geometry override.
        backend: SpGEMM backend of every session (``"auto"``: the
            blocked engine).
        pruning: named pruning method applied to every model's weights
            (``None`` — reported as ``native``).

    Returns:
        One row per (model, batch cap, deadline, workers) cell.
    """
    config = config or V100_CONFIG
    names = tuple(models or DEFAULT_MODELS)
    caps = [int(cap) for cap in (batch_caps or DEFAULT_BATCH_CAPS)]
    deadlines = [float(d) for d in (deadlines_us or DEFAULT_DEADLINES_US)]
    worker_axis = [int(w) for w in (workers_counts or DEFAULT_WORKER_COUNTS)]
    pool = SessionPool(
        scale=scale,
        seed=seed,
        backend=backend,
        pruning=pruning,
        tile_config=tile_config,
    )
    rows: list[dict] = []
    for name in names:
        schedule = poisson_arrivals(
            [name], count=requests, mean_gap_us=mean_gap_us, seed=seed,
            image_pool=image_pool,
        )
        for cap in caps:
            for deadline in deadlines:
                for workers in worker_axis:
                    daemon = ServingDaemon(
                        pool,
                        batch_cap=cap,
                        deadline_us=deadline,
                        queue_depth=max(queue_depth, cap),
                        workers=workers,
                        config=config,
                    )
                    report = daemon.run(schedule)
                    completed = report.completed
                    sizes = [len(b.images) for b in report.batches if b.completed]
                    row = {
                        "model": name,
                        "pruning": pruning or "native",
                        "scale": pool.scale_for(name),
                        "batch_cap": cap,
                        "deadline_us": deadline,
                        "workers": workers,
                        "queue_depth": max(queue_depth, cap),
                        "requests": requests,
                        "mean_gap_us": mean_gap_us,
                        "completed": len(completed),
                        "rejected": len(report.rejected),
                        "failed": len(report.failed),
                        "batches": len(sizes),
                        "mean_batch_size": round(
                            sum(sizes) / len(sizes), 3
                        ) if sizes else 0.0,
                        "flush_full": sum(
                            1 for b in report.batches
                            if b.completed and b.flush_cause == FLUSH_FULL
                        ),
                        "flush_deadline": sum(
                            1 for b in report.batches
                            if b.completed and b.flush_cause == FLUSH_DEADLINE
                        ),
                        "makespan_us": round(report.makespan_us, 3),
                        "images_per_sec": round(report.images_per_sec(), 1),
                    }
                    row.update(report.latency.summary())
                    rows.append(row)
    return rows
