"""Vectorized-engine speedup over the reference loop (512x512x512 SpGEMM).

Times both functional backends on the same pruned-DNN-like workload
(90% sparse operands), asserts that the vectorized engine keeps its
>= 10x advantage and that the two paths stay bit-identical, and appends
the measurement to the JSON trajectory at
``benchmarks/results/engine_speedup.json`` so speedup history survives
across runs.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

import numpy as np

from repro.core.spgemm_device import device_spgemm
from repro.sparsity.generators import random_sparse_matrix

SIZE = 512
DENSITY = 0.1
MIN_SPEEDUP = 10.0
TRAJECTORY = "engine_speedup.json"


def _timed(func) -> float:
    """Wall-clock seconds of one call."""
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def test_bench_engine_speedup_512(benchmark, append_trajectory):
    rng = np.random.default_rng(2021)
    a = random_sparse_matrix((SIZE, SIZE), DENSITY, rng)
    b = random_sparse_matrix((SIZE, SIZE), DENSITY, rng)

    start = time.perf_counter()
    reference = device_spgemm(a, b, backend="reference")
    reference_seconds = time.perf_counter() - start

    # Pin backend="vectorized": this benchmark gates the per-step
    # engine's bit-identity with the reference loop; the default "auto"
    # routes a 512^3 product to the blocked engine (benchmarked
    # separately in test_blocked_engine_speedup.py).
    vectorized = benchmark(device_spgemm, a, b, backend="vectorized")
    # Best-of-N wall clock for the assertion below: a single ~30 ms
    # sample is too exposed to scheduler noise for a hard CI gate.
    vectorized_seconds = min(
        _timed(lambda: device_spgemm(a, b, backend="vectorized"))
        for _ in range(5)
    )

    assert np.array_equal(reference.output, vectorized.output)
    assert reference.stats == vectorized.stats

    speedup = reference_seconds / vectorized_seconds
    append_trajectory(
        TRAJECTORY,
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workload": f"spgemm {SIZE}x{SIZE}x{SIZE}",
            "density": DENSITY,
            "reference_seconds": round(reference_seconds, 4),
            "vectorized_seconds": round(vectorized_seconds, 4),
            "speedup": round(speedup, 2),
        }
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized engine only {speedup:.1f}x faster than the reference "
        f"loop (required: {MIN_SPEEDUP:.0f}x)"
    )
