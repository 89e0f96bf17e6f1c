"""Vectorized conv-pipeline speedup over the reference loops.

Times both backends of the functional dual-side convolution — bitmap
im2col chained into the outer-product SpGEMM — on the *full-resolution*
Table III ResNet-18 layer (56x56 feature map, 3x3 kernel, 128 channels,
90% activation / 75% weight sparsity).  Asserts that the vectorized
pipeline keeps its >= 20x advantage while staying bit-identical (lowered
matrix, encoding, numeric output and every statistics field), and
appends the measurement to the JSON trajectory at
``benchmarks/results/spconv_speedup.json`` so speedup history survives
across runs.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

import numpy as np

from repro.core.im2col_bitmap import bitmap_im2col
from repro.core.spconv import sparse_conv2d
from repro.sparsity.generators import random_sparse_matrix

CHANNELS, HEIGHT, WIDTH = 128, 56, 56
FILTERS, KERNEL, STRIDE, PADDING = 128, 3, 1, 1
ACTIVATION_DENSITY = 0.1
WEIGHT_DENSITY = 0.25
MIN_SPEEDUP = 20.0
TRAJECTORY = "spconv_speedup.json"


def _timed(func) -> float:
    """Wall-clock seconds of one call."""
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def _workload():
    rng = np.random.default_rng(2021)
    feature_map = random_sparse_matrix(
        (CHANNELS * HEIGHT, WIDTH), ACTIVATION_DENSITY, rng
    ).reshape(CHANNELS, HEIGHT, WIDTH)
    weights = random_sparse_matrix(
        (FILTERS, CHANNELS * KERNEL * KERNEL), WEIGHT_DENSITY, rng
    ).reshape(FILTERS, CHANNELS, KERNEL, KERNEL)
    return feature_map, weights


def test_bench_spconv_speedup_table3_layer(benchmark, append_trajectory):
    feature_map, weights = _workload()

    # The im2col stage alone must be bit-exact: lowered values, condensed
    # encoding and every stats field.
    reference_im2col = bitmap_im2col(
        feature_map, KERNEL, STRIDE, PADDING, backend="reference"
    )
    vectorized_im2col = bitmap_im2col(
        feature_map, KERNEL, STRIDE, PADDING, backend="vectorized"
    )
    assert np.array_equal(reference_im2col.lowered, vectorized_im2col.lowered)
    assert np.array_equal(
        reference_im2col.encoding.bitmap, vectorized_im2col.encoding.bitmap
    )
    assert np.array_equal(
        reference_im2col.encoding.values, vectorized_im2col.encoding.values
    )
    assert reference_im2col.stats == vectorized_im2col.stats

    start = time.perf_counter()
    reference = sparse_conv2d(
        feature_map, weights, STRIDE, PADDING, backend="reference"
    )
    reference_seconds = time.perf_counter() - start

    # Pin backend="vectorized": this benchmark gates the *vectorized*
    # pipeline's bit-identity with the reference loops; the default
    # "auto" would route this lowered shape to the blocked engine.
    vectorized = benchmark(
        sparse_conv2d, feature_map, weights, STRIDE, PADDING,
        backend="vectorized",
    )
    # Best-of-N wall clock for the assertion below: a single sample is
    # too exposed to scheduler noise for a hard CI gate.
    vectorized_seconds = min(
        _timed(
            lambda: sparse_conv2d(
                feature_map, weights, STRIDE, PADDING, backend="vectorized"
            )
        )
        for _ in range(3)
    )

    assert np.array_equal(reference.output, vectorized.output)
    assert reference.stats == vectorized.stats

    speedup = reference_seconds / vectorized_seconds
    append_trajectory(
        TRAJECTORY,
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workload": (
                f"spconv {CHANNELS}x{HEIGHT}x{WIDTH} K={KERNEL} N={FILTERS} "
                "(Table III ResNet-18 layer, full resolution)"
            ),
            "activation_density": ACTIVATION_DENSITY,
            "weight_density": WEIGHT_DENSITY,
            "reference_seconds": round(reference_seconds, 4),
            "vectorized_seconds": round(vectorized_seconds, 4),
            "speedup": round(speedup, 2),
        }
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized conv pipeline only {speedup:.1f}x faster than the "
        f"reference loops (required: {MIN_SPEEDUP:.0f}x)"
    )
