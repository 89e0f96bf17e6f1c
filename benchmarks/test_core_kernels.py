"""Micro-benchmarks of the core functional kernels themselves.

These measure the Python implementation (useful to track regressions of
the simulator's own speed) while asserting numerical correctness against
the dense references.
"""

import numpy as np

from repro.core.im2col_bitmap import bitmap_im2col
from repro.core.im2col_dense import dense_im2col
from repro.core.operands import device_stats_from_operands
from repro.core.reference import reference_conv2d, reference_gemm
from repro.core.spconv import sparse_conv2d
from repro.core.spgemm_device import device_spgemm
from repro.sparsity.generators import random_sparse_matrix


def test_bench_functional_device_spgemm(benchmark):
    rng = np.random.default_rng(0)
    a = random_sparse_matrix((128, 96), 0.3, rng)
    b = random_sparse_matrix((96, 128), 0.2, rng)
    result = benchmark(device_spgemm, a, b)
    assert np.allclose(result.output, reference_gemm(a, b))


def test_bench_instruction_counter_large(benchmark):
    rng = np.random.default_rng(1)
    a = random_sparse_matrix((1024, 1024), 0.3, rng)
    b = random_sparse_matrix((1024, 1024), 0.1, rng)
    stats = benchmark(device_stats_from_operands, a, b)
    assert stats.instruction_speedup > 1.5


def test_bench_bitmap_im2col(benchmark):
    rng = np.random.default_rng(2)
    fm = random_sparse_matrix((16 * 28, 28), 0.4, rng).reshape(16, 28, 28)
    result = benchmark(bitmap_im2col, fm, 3, 1, 1)
    dense_lowered, _ = dense_im2col(fm, 3, 1, 1)
    assert np.allclose(result.lowered, dense_lowered)


def test_bench_sparse_conv2d(benchmark):
    rng = np.random.default_rng(3)
    fm = random_sparse_matrix((8 * 16, 16), 0.4, rng).reshape(8, 16, 16)
    weights = random_sparse_matrix((16, 8 * 9), 0.25, rng).reshape(16, 8, 3, 3)
    result = benchmark(sparse_conv2d, fm, weights, 1, 1)
    assert np.allclose(result.output, reference_conv2d(fm, weights, 1, 1))
