"""The implicit-im2col conv operand against the lowered matrix it stands for.

:class:`~repro.core.conv_operand.ConvOperand` holds a padded feature
map and its lowered bitmap, never the lowered values, and the blocked
engine's whole-matrix path reads the transposed operand's rows straight
from the map.  These tests pin:

* numerics against :func:`repro.core.reference.reference_conv2d` over
  kernel sizes, strides, paddings and channel counts on both sides of
  the 256-step chunk bound: exact on integer-valued data, within 2
  float32 ulps otherwise;
* every backend and every blocked path (whole matrix in one or several
  bands, warp tiles, the non-finite fallback) on the operand, against
  the same backend on the lowered values, so no path multiplies the
  bitmap as if it held the values;
* BLAS operands: every matmul of the implicit path reads operands BLAS
  can take in place (rows at least as far apart as they are long), also
  where a channel plane is shorter than the product's row length;
* dead steps: an all-zero input channel never reaches a matmul;
* statistics: the bitmap gives the summary, per-step counts and every
  ``DeviceStats`` field of the lowered values (Hypothesis).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine_blocked
from repro.core.conv_operand import ConvOperand
from repro.core.im2col_dense import dense_im2col, flatten_weights
from repro.core.operands import EncodedOperand, device_stats_from_operands
from repro.core.reference import reference_conv2d
from repro.core.spconv import CompiledConvWeights, sparse_conv2d
from repro.core.spgemm_device import BACKENDS, device_spgemm
from repro.core.spgemm_warp import WarpTileConfig


def assert_within_float32_ulps(actual, expected, ulps=2):
    actual32 = actual.astype(np.float32)
    expected32 = expected.astype(np.float32)
    spacing = np.spacing(np.abs(expected32))
    assert np.all(np.abs(actual32 - expected32) <= ulps * spacing)


def conv_inputs(rng, channels, height, width, filters, kernel, integer):
    """A map at 60% density and weights at 50%, integer-valued or not."""
    fm_shape = (channels, height, width)
    w_shape = (filters, channels, kernel, kernel)
    if integer:
        fm = rng.integers(-3, 4, fm_shape).astype(np.float32)
        weights = rng.integers(-3, 4, w_shape).astype(np.float32)
    else:
        fm = rng.uniform(0.5, 2.5, fm_shape).astype(np.float32)
        weights = rng.uniform(-1.5, 1.5, w_shape).astype(np.float32)
    fm[rng.random(fm_shape) < 0.4] = 0.0
    weights[rng.random(w_shape) < 0.5] = 0.0
    return fm, weights


def lowered_values(fm, kernel, stride, padding):
    """The float64 lowered matrix the operand stands for."""
    return dense_im2col(fm, kernel, stride, padding)[0].astype(np.float64)


def blas_compatible(array):
    """Whether NumPy's matmul hands ``array`` to BLAS without a copy.

    One axis must have unit stride and the other a stride of at least
    the unit axis's length (NumPy's ``is_blasable2d``); otherwise
    matmul runs its own loop, far slower.
    """
    item = array.itemsize
    (rows, cols), (row_stride, col_stride) = array.shape, array.strides
    return (
        col_stride == item and row_stride % item == 0 and row_stride >= cols * item
    ) or (
        row_stride == item and col_stride % item == 0 and col_stride >= rows * item
    )


@pytest.fixture
def blas_operands(monkeypatch):
    """Asserts that every matmul of the blocked engine is BLAS-compatible.

    Yields the list of (left, right, target) shapes checked.
    """
    checked = []
    accumulate = engine_blocked._accumulate

    def checking(blocks, target):
        blocks = list(blocks)
        for left, right in blocks:
            assert blas_compatible(left), (left.shape, left.strides)
            assert blas_compatible(right), (right.shape, right.strides)
            checked.append((left.shape, right.shape, target.shape))
        assert blas_compatible(target), (target.shape, target.strides)
        accumulate(blocks, target)

    monkeypatch.setattr(engine_blocked, "_accumulate", checking)
    return checked


class TestAgainstReferenceConv:
    @pytest.mark.parametrize("channels", [3, 255, 256, 257])
    @pytest.mark.parametrize("padding", [0, 1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_exact_on_integers_within_two_ulps_otherwise(
        self, kernel, stride, padding, channels, blas_operands
    ):
        # N = 5 runs every product transposed; N = 16 runs the small
        # wide lengths of these 9 x 11 maps as A @ B.
        filters = 16 if channels % 2 == 0 else 5
        rng = np.random.default_rng(kernel * 1000 + stride * 100 + channels)
        for integer in (True, False):
            fm, weights = conv_inputs(rng, channels, 9, 11, filters, kernel, integer)
            with mock.patch.object(
                engine_blocked, "_implicit_product",
                wraps=engine_blocked._implicit_product,
            ) as implicit:
                result = sparse_conv2d(fm, weights, stride, padding)
            assert implicit.call_count == 1
            assert blas_operands
            expected = reference_conv2d(fm, weights, stride, padding)
            assert result.output.shape == expected.shape
            if integer:
                assert np.array_equal(result.output, expected)
            else:
                assert_within_float32_ulps(result.output, expected)


class TestShortPlanes:
    @pytest.mark.parametrize(
        "shape,kernel,padding",
        [((257, 14, 14), 1, 0), ((300, 2, 2), 2, 0), ((260, 3, 5), 1, 1)],
        ids=["1x1-on-14x14", "2x2-on-2x2", "1x1-padded"],
    )
    def test_channel_views_are_blas_compatible(
        self, shape, kernel, padding, blas_operands
    ):
        # Each channel's plane (196, 4 and 35 elements) is shorter than
        # the product's row length rounded up to a multiple of 8 (200,
        # 8 and 40): the channels must still sit a row length apart.
        rng = np.random.default_rng(shape[0])
        fm, weights = conv_inputs(rng, *shape, 8, kernel, integer=True)
        # Every step live, so the first 256 channels are one chunk.
        fm[fm == 0] = 1.0
        weights[weights == 0] = 1.0
        operand = ConvOperand(fm, kernel, 1, padding)
        band = next(operand.bands(operand.row_length))
        view = operand.rows(0, slice(0, 256), band)
        assert view.base is not None  # a view, not a gather
        assert view.strides[0] >= operand.row_length * view.itemsize
        result = sparse_conv2d(fm, weights, 1, padding)
        assert any(256 in (left[0], right[0]) for left, right, _ in blas_operands)
        assert np.array_equal(
            result.output, reference_conv2d(fm, weights, 1, padding)
        )


def test_plain_weights_multiply_the_lowered_values():
    # A B that is not a conv layer's ConvWeightOperand has no offset
    # grouping: the plain whole-matrix path multiplies the lowered values.
    rng = np.random.default_rng(11)
    fm, weights = conv_inputs(rng, 40, 12, 12, 8, 3, integer=True)
    operand = ConvOperand(fm, 3, 1, 1)
    flat = flatten_weights(weights)
    with mock.patch.object(
        engine_blocked, "_implicit_product",
        wraps=engine_blocked._implicit_product,
    ) as implicit:
        result = device_spgemm(operand, flat)
    assert implicit.call_count == 0
    assert operand._dense is not None
    plain = device_spgemm(lowered_values(fm, 3, 1, 1), flat)
    assert result.output.tobytes() == plain.output.tobytes()
    assert result.stats == plain.stats


def _paths(func, *args):
    """``(result, paths)``: the blocked-engine paths ``func`` ran."""
    with mock.patch.object(
        engine_blocked, "_implicit_product",
        wraps=engine_blocked._implicit_product,
    ) as implicit, mock.patch.object(
        engine_blocked, "_live_step_product",
        wraps=engine_blocked._live_step_product,
    ) as steps:
        result = func(*args)
    paths = set()
    if implicit.call_count:
        paths.add("implicit")
    if steps.call_count:
        paths.add("tile")
    return result, paths


def _patch_map(fm):
    """Zero everything but a 2 x 2 patch, so most row tiles are empty."""
    patched = np.zeros_like(fm)
    patched[:, 2:4, 2:4] = fm[:, 2:4, 2:4]
    return patched


class TestEveryBackend:
    """Each backend and path on the operand equals it on lowered values."""

    CASES = {
        # name: (channels, height, width, filters, kernel, stride, padding)
        "one-band": (5, 10, 12, 8, 3, 1, 1),
        "bands-views": (40, 40, 60, 8, 3, 1, 1),
        "strided-bands": (12, 100, 100, 8, 3, 2, 1),
        "warp-tiles": (4, 24, 24, 8, 3, 1, 1),
    }

    @pytest.mark.parametrize(
        "case,backend",
        [
            (case, backend)
            for case in sorted(CASES)
            for backend in BACKENDS
            # The reference loop runs the smallest case only.
            if backend != "reference" or case == "one-band"
        ],
    )
    def test_matches_the_lowered_values(self, case, backend):
        channels, height, width, filters, kernel, stride, padding = (
            self.CASES[case]
        )
        rng = np.random.default_rng(len(case))
        fm, weights = conv_inputs(
            rng, channels, height, width, filters, kernel, integer=False
        )
        # Values far from 1: multiplying the bitmap could not pass.
        fm = np.where(fm != 0, fm + 2.0, 0.0).astype(np.float32)
        if case == "warp-tiles":
            fm = _patch_map(fm)
        operand = ConvOperand(fm, kernel, stride, padding)
        compiled = CompiledConvWeights.from_dense(weights).operand
        implicit, paths = _paths(
            device_spgemm, operand, compiled, None, 2, False, backend
        )
        lowered = lowered_values(fm, kernel, stride, padding)
        plain = device_spgemm(lowered, flatten_weights(weights), backend=backend)
        assert implicit.stats == plain.stats
        if backend in ("vectorized", "reference"):
            assert implicit.output.tobytes() == plain.output.tobytes()
            return
        expected = {"warp-tiles": {"tile"}}.get(case, {"implicit"})
        assert paths == expected
        assert_within_float32_ulps(implicit.output, plain.output)

    def test_non_finite_map_falls_back_bit_identical(self):
        rng = np.random.default_rng(5)
        fm, weights = conv_inputs(rng, 5, 10, 12, 8, 3, integer=False)
        fm[2, 4, 4] = np.inf
        operand = ConvOperand(fm, 3, 1, 1)
        assert not operand.all_finite
        compiled = CompiledConvWeights.from_dense(weights).operand
        implicit, paths = _paths(device_spgemm, operand, compiled)
        assert paths == set()
        plain = device_spgemm(
            lowered_values(fm, 3, 1, 1), flatten_weights(weights),
            backend="reference",
        )
        assert np.array_equal(implicit.output, plain.output, equal_nan=True)
        assert implicit.stats == plain.stats


class TestDeadSteps:
    def test_zero_channel_never_reaches_a_matmul(self, monkeypatch):
        # 300 channels, so every offset's live channels split into a
        # gathered chunk (channel 1 missing) and a strided view.
        rng = np.random.default_rng(9)
        fm, weights = conv_inputs(rng, 300, 6, 7, 8, 3, integer=True)
        fm[fm == 0] = 1.0
        weights[weights == 0] = 1.0
        fm[1] = 0.0
        requested = []
        real_rows = ConvOperand.rows

        def spy(self, offsets, channels, band):
            requested.append(channels)
            return real_rows(self, offsets, channels, band)

        monkeypatch.setattr(ConvOperand, "rows", spy)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
            result = sparse_conv2d(fm, weights, 1, 1)
        steps = []
        for channels in requested:
            if isinstance(channels, slice):
                channels = np.arange(channels.start, channels.stop)
            steps.extend(np.asarray(channels).ravel().tolist())
        assert 1 not in steps
        assert sorted(set(steps)) == [c for c in range(300) if c != 1]
        # Each of the 9 offsets' 299 live channels, once.
        assert len(steps) == 9 * 299
        assert sum(call.args[0].shape[1] for call in matmul.call_args_list) == (
            9 * 299
        )
        assert np.array_equal(result.output, reference_conv2d(fm, weights, 1, 1))


@st.composite
def conv_geometries(draw):
    kernel = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.sampled_from([1, 2, 3]))
    padding = draw(st.sampled_from([0, 1, 2]))
    height = draw(st.integers(max(1, kernel - 2 * padding), 13))
    width = draw(st.integers(max(1, kernel - 2 * padding), 13))
    channels = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    fm = rng.uniform(0.5, 1.5, (channels, height, width))
    fm[rng.random(fm.shape) >= density] = 0.0
    config = WarpTileConfig(
        tm=draw(st.sampled_from([8, 16, 32])),
        tn=draw(st.sampled_from([16, 32])),
        tk=draw(st.sampled_from([4, 16])),
    )
    return fm, kernel, stride, padding, config


class TestStatisticsFromTheBitmap:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(conv_geometries())
    def test_bitmap_statistics_equal_the_values(self, geometry):
        fm, kernel, stride, padding, config = geometry
        operand = ConvOperand(fm, kernel, stride, padding)
        plain = EncodedOperand.for_a(lowered_values(fm, kernel, stride, padding))
        weights = np.ones((plain.shape[1], 24))
        assert operand.shape == plain.shape
        assert np.array_equal(operand.k_nnz, plain.k_nnz)
        assert operand.sparsity == plain.sparsity
        for element_bytes in (1, 2):
            assert device_stats_from_operands(
                operand, weights, config, element_bytes
            ) == device_stats_from_operands(plain, weights, config, element_bytes)
        assert operand._dense is None  # no lowered values were built
