"""Property tests for the vectorized im2col engines.

Two contracts, checked over random shapes / strides / paddings /
sparsities with Hypothesis:

* every im2col variant produces the lowered matrix a *definitional*
  dense lowering produces (one Python loop per lowered element — an
  oracle independent of all three implementations), and
* ``backend="vectorized"`` matches ``backend="reference"`` exactly for
  each variant — lowered values bit for bit, encodings and every
  statistics field — and the same end to end through
  :func:`repro.core.spconv.sparse_conv2d`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.im2col_bitmap import bitmap_im2col
from repro.core.im2col_csr import csr_im2col
from repro.core.im2col_dense import dense_im2col
from repro.core.im2col_engine import (
    bit_offsets_rows,
    bitmap_lowering,
    check_im2col_backend,
    lower_windows,
    pad_feature_map,
)
from repro.core.spconv import sparse_conv2d
from repro.core.spgemm_device import BACKENDS
from repro.errors import ConfigError
from repro.sparsity.generators import random_sparse_matrix
from repro.utils.bitops import prefix_popcount


def _direct_dense_lowering(feature_map, kernel, stride, padding):
    """Definitional lowering: one Python assignment per lowered element."""
    channels, height, width = feature_map.shape
    padded = np.pad(
        feature_map, ((0, 0), (padding, padding), (padding, padding))
    )
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    lowered = np.zeros(
        (out_h * out_w, kernel * kernel * channels), dtype=feature_map.dtype
    )
    for out_row in range(out_h):
        for out_col in range(out_w):
            for c in range(channels):
                for ki in range(kernel):
                    for kj in range(kernel):
                        lowered[
                            out_row * out_w + out_col,
                            c * kernel * kernel + ki * kernel + kj,
                        ] = padded[c, out_row * stride + ki, out_col * stride + kj]
    return lowered


#: (channels, height, width, kernel, stride, padding, density, seed) —
#: kernel never exceeds the spatial extent, so every case is valid.
conv_cases = st.tuples(
    st.integers(1, 3),
    st.integers(3, 9),
    st.integers(3, 9),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2),
    st.floats(0.0, 1.0),
    st.integers(0, 10_000),
)


def _feature_map(case):
    channels, height, width, kernel, stride, padding, density, seed = case
    rng = np.random.default_rng(seed)
    fm = random_sparse_matrix((channels * height, width), density, rng).reshape(
        channels, height, width
    )
    return fm, kernel, stride, padding


class TestDirectLoweringProperty:
    @given(conv_cases)
    @settings(max_examples=30, deadline=None)
    def test_all_variants_match_direct_dense_lowering(self, case):
        fm, kernel, stride, padding = _feature_map(case)
        direct = _direct_dense_lowering(fm, kernel, stride, padding)
        dense_lowered, _ = dense_im2col(fm, kernel, stride, padding)
        assert np.array_equal(dense_lowered, direct)
        csr_lowered, _ = csr_im2col(fm, kernel, stride, padding)
        assert np.array_equal(csr_lowered, direct)
        assert np.array_equal(
            bitmap_im2col(fm, kernel, stride, padding).lowered, direct
        )


class TestBackendParityProperty:
    @given(conv_cases)
    @settings(max_examples=30, deadline=None)
    def test_bitmap_vectorized_equals_reference(self, case):
        fm, kernel, stride, padding = _feature_map(case)
        ref = bitmap_im2col(fm, kernel, stride, padding, backend="reference")
        vec = bitmap_im2col(fm, kernel, stride, padding, backend="vectorized")
        assert np.array_equal(ref.lowered, vec.lowered)
        assert ref.lowered.dtype == vec.lowered.dtype
        assert np.array_equal(ref.encoding.bitmap, vec.encoding.bitmap)
        assert np.array_equal(ref.encoding.values, vec.encoding.values)
        assert ref.encoding.order == vec.encoding.order
        assert ref.stats == vec.stats

    @given(conv_cases)
    @settings(max_examples=30, deadline=None)
    def test_csr_vectorized_equals_reference(self, case):
        fm, kernel, stride, padding = _feature_map(case)
        ref_lowered, ref_stats = csr_im2col(
            fm, kernel, stride, padding, backend="reference"
        )
        vec_lowered, vec_stats = csr_im2col(
            fm, kernel, stride, padding, backend="vectorized"
        )
        assert np.array_equal(ref_lowered, vec_lowered)
        assert ref_stats == vec_stats

    @given(conv_cases)
    @settings(max_examples=30, deadline=None)
    def test_dense_vectorized_equals_reference(self, case):
        fm, kernel, stride, padding = _feature_map(case)
        ref_lowered, ref_stats = dense_im2col(
            fm, kernel, stride, padding, backend="reference"
        )
        vec_lowered, vec_stats = dense_im2col(
            fm, kernel, stride, padding, backend="vectorized"
        )
        assert np.array_equal(ref_lowered, vec_lowered)
        assert ref_stats == vec_stats

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_spconv_pipeline_backend_parity(self, seed):
        rng = np.random.default_rng(seed)
        fm = random_sparse_matrix((3 * 8, 9), float(rng.uniform(0.1, 0.9)), rng)
        fm = fm.reshape(3, 8, 9)
        weights = random_sparse_matrix((4, 3 * 9), 0.4, rng).reshape(4, 3, 3, 3)
        ref = sparse_conv2d(fm, weights, 1, 1, backend="reference")
        vec = sparse_conv2d(fm, weights, 1, 1, backend="vectorized")
        assert np.array_equal(ref.output, vec.output)
        assert ref.stats == vec.stats


class TestEngineInternals:
    @given(
        st.integers(1, 5),
        st.integers(0, 80),
        st.floats(0.0, 1.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_word_level_offsets_match_prefix_popcount(
        self, rows, width, density, seed
    ):
        """The packed-word mask/shift/POPC offsets equal the per-row
        exclusive prefix popcount, including across word boundaries."""
        rng = np.random.default_rng(seed)
        bits = rng.random((rows, width)) < density
        offsets = bit_offsets_rows(bits)
        assert offsets.shape == bits.shape
        for r in range(rows):
            assert np.array_equal(offsets[r], prefix_popcount(bits[r]))


    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_column_major_lowering_matches_window_gather(self, kernel, stride):
        """Both lowerings equal the sliding-window gather they replaced,
        element for element, and are F-contiguous."""
        rng = np.random.default_rng(kernel * 10 + stride)
        fm = random_sparse_matrix((3 * 11, 10), 0.4, rng).reshape(3, 11, 10)
        padded = pad_feature_map(fm, 1)
        out_h = (padded.shape[1] - kernel) // stride + 1
        out_w = (padded.shape[2] - kernel) // stride + 1
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kernel, kernel), axis=(1, 2)
        )[:, ::stride, ::stride]
        gathered = windows.transpose(1, 2, 0, 3, 4).reshape(
            out_h * out_w, 3 * kernel * kernel
        )
        lowered = lower_windows(padded, kernel, stride, out_h, out_w)
        bitmap, _ = bitmap_lowering(padded, kernel, stride, out_h, out_w)
        for result in (lowered, bitmap):
            assert result.flags.f_contiguous
            assert result.dtype == fm.dtype
            assert np.array_equal(result, gathered)

    @pytest.mark.parametrize("padding", [0, 1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pad_feature_map_equals_np_pad(self, padding, dtype):
        rng = np.random.default_rng(padding)
        fm = random_sparse_matrix((2 * 5, 7), 0.5, rng, dtype=dtype).reshape(
            2, 5, 7
        )
        padded = pad_feature_map(fm, padding)
        expected = np.pad(
            fm, ((0, 0), (padding, padding), (padding, padding))
        )
        assert padded.dtype == expected.dtype
        assert np.array_equal(padded, expected)


class TestBackendValidation:
    def test_unknown_backend_rejected(self, rng):
        fm = random_sparse_matrix((2 * 6, 6), 0.5, rng).reshape(2, 6, 6)
        for func in (dense_im2col, csr_im2col, bitmap_im2col):
            with pytest.raises(ConfigError):
                func(fm, 3, backend="numpy")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_spgemm_backend_name_accepted(self, rng, backend):
        """sparse_conv2d threads one backend through both stages, so every
        SpGEMM backend name must lower the same matrix."""
        fm = random_sparse_matrix((2 * 6, 6), 0.5, rng).reshape(2, 6, 6)
        expected, _ = dense_im2col(fm, 3, 1, 1, backend="reference")
        check_im2col_backend(backend)
        assert np.array_equal(dense_im2col(fm, 3, 1, 1, backend=backend)[0], expected)
        assert np.array_equal(csr_im2col(fm, 3, 1, 1, backend=backend)[0], expected)
        assert np.array_equal(bitmap_im2col(fm, 3, 1, 1, backend=backend).lowered, expected)
