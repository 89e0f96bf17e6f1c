"""Blocked-engine speedups: whole-matrix path and warp-tile path.

The whole-matrix gate times the blocked engine against the per-step
vectorized engine on Figure 21-sized SpGEMMs (1024^3 and 2048^3 at
(0.7, 0.7) sparsity) and on a full-resolution (``scale=1.0``) functional
ResNet-18 run, and asserts the >= 5x advantage at 2048^3 with
bit-identical statistics and exact numeric output (the operands are
integer-valued, so the chunk re-association is exact).

The calibration gate is the measurement behind ``backend="auto"``
resolving to the blocked engine at every shape: it times both engines,
statistics included, on the smallest served layer (Demo-GEMM's
16 x 18 x 12) and on Mask R-CNN's mask-head layer at bench scale
(49 x 2304 x 256), prints the table and asserts the blocked engine is
not slower at either.

The warp-tile gate times an RNN-shaped block-pruned product — a
4096 x 2048 A pruned in 32 x 32 blocks at 5% block density times a dense
2048 x 1024 B — against a dense ``np.matmul`` of the same float64
arrays, and asserts the >= 1.3x advantage with an output exactly equal
to ``a @ b`` (integer-valued again).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engine_blocked import TILE_PATH_MAX_SHARE, tile_share
from repro.core.operands import EncodedOperand
from repro.core.spgemm_device import device_spgemm
from repro.core.spgemm_warp import WarpTileConfig
from repro.nn.functional import run_model_functional
from repro.sparsity.generators import random_sparse_matrix

SPARSITY = 0.7
MIN_SPEEDUP_2048 = 5.0

#: RNN gate-GEMM shape (M, K, N) of the warp-tile gate.
TILE_SHAPE = (4096, 2048, 1024)
TILE_BLOCK = 32
TILE_BLOCK_DENSITY = 0.05
MIN_TILE_SPEEDUP = 1.3

#: (M, K, N) of the calibration gate: Demo-GEMM's g1 layer, and
#: Mask R-CNN's mask-head layer at bench scale.
CALIBRATION_SHAPES = ((16, 18, 12), (49, 2304, 256))


def _timed(func):
    """(wall-clock seconds, result) of one call."""
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def _integer_operands(size: int, seed: int):
    """Integer-valued sparse operands: chunk re-association is exact,
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


def _block_pruned_operands(seed: int):
    """Integer-valued block-pruned A and dense B of :data:`TILE_SHAPE`."""
    m_dim, k_dim, n_dim = TILE_SHAPE
    rng = np.random.default_rng(seed)
    blocks = (
        rng.random((m_dim // TILE_BLOCK, k_dim // TILE_BLOCK))
        < TILE_BLOCK_DENSITY
    )
    mask = np.kron(blocks, np.ones((TILE_BLOCK, TILE_BLOCK), dtype=bool))
    a = np.where(mask, rng.integers(1, 9, (m_dim, k_dim)), 0).astype(np.float64)
    b = rng.integers(-8, 9, (k_dim, n_dim)).astype(np.float64)
    return a, b


def test_bench_blocked_engine_speedup(benchmark):
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

    run = run_model_functional("ResNet-18", scale=1.0, seed=2021)
    assert run.ohmma_issued > 0

    speedup_2048 = sizes[2048][0] / sizes[2048][1]
    assert speedup_2048 >= MIN_SPEEDUP_2048, (
        f"blocked engine only {speedup_2048:.1f}x faster than the "
        f"vectorized engine at 2048^3 (required: {MIN_SPEEDUP_2048:.0f}x)"
    )


def test_bench_warp_tile_skip_speedup():
    a, b = _block_pruned_operands(seed=17)
    config = WarpTileConfig()
    a_op = EncodedOperand.for_a(a)
    share = tile_share(a_op.summary(config), a_op.k_activity)
    assert share < TILE_PATH_MAX_SHARE  # the product takes the tile path

    # Best of 3 each: a sub-second sample is too exposed to scheduler
    # noise for a hard CI gate.  Plain arrays, so every blocked call pays
    # its own operand summaries and statistics.
    matmul_seconds, expected = min(
        (_timed(lambda: np.matmul(a, b)) for _ in range(3)),
        key=lambda sample: sample[0],
    )
    blocked_seconds, blocked = min(
        (
            _timed(lambda: device_spgemm(a, b, backend="blocked"))
            for _ in range(3)
        ),
        key=lambda sample: sample[0],
    )
    assert np.array_equal(blocked.output, expected)
    speedup = matmul_seconds / blocked_seconds
    assert speedup >= MIN_TILE_SPEEDUP, (
        f"warp-tile path only {speedup:.2f}x faster than a dense matmul on "
        f"{share:.2f} of the tiles (required: {MIN_TILE_SPEEDUP}x)"
    )


def _best_of(repeats, func):
    """Fastest of ``repeats`` wall-clock samples of one call, seconds."""
    return min(_timed(func)[0] for _ in range(repeats))


def test_bench_auto_calibration():
    rng = np.random.default_rng(25)
    rows = []
    for m_dim, k_dim, n_dim in CALIBRATION_SHAPES:
        a = random_sparse_matrix((m_dim, k_dim), 0.5, rng)
        b = random_sparse_matrix((k_dim, n_dim), 0.6, rng)
        seconds = {
            backend: _best_of(
                5, lambda: device_spgemm(a, b, backend=backend)
            )
            for backend in ("vectorized", "blocked")
        }
        rows.append(((m_dim, k_dim, n_dim), seconds))
    print()
    print(f"{'M x K x N':>16} {'vectorized':>12} {'blocked':>10} {'ratio':>7}")
    for shape, seconds in rows:
        ratio = seconds["vectorized"] / seconds["blocked"]
        print(
            f"{' x '.join(map(str, shape)):>16} "
            f"{seconds['vectorized'] * 1e3:>10.3f}ms "
            f"{seconds['blocked'] * 1e3:>8.3f}ms {ratio:>6.1f}x"
        )
    for shape, seconds in rows:
        assert seconds["blocked"] <= seconds["vectorized"], (
            f"blocked engine slower than the vectorized engine at {shape}: "
            f"{seconds['blocked'] * 1e3:.3f} ms vs "
            f"{seconds['vectorized'] * 1e3:.3f} ms, so backend='auto' "
            "would pick the slower engine there"
        )
