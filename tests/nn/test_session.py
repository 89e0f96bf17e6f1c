"""Compiled-session parity: batch folding vs the per-image oracle.

The bit-identity contract of :mod:`repro.nn.session`:
``session.run(batch).per_image[i]`` must equal
``run_model_functional(..., image=i, keep_outputs=True)`` exactly —
numeric outputs bit for bit and every ``DeviceStats`` field — for conv
and GEMM models, for every backend, and for any batch composition.  The
fused per-layer statistics are by definition the per-image sums.

Also covers image-parallel batches (chunks on a thread pool under a
BLAS cap, bit-identical to the sequential run), the finiteness proof of
the conv operand, the implicit lowering (a session lowers only the
bitmap of each feature map), and the operand memoization of
:mod:`repro.nn.synthetic`: pure per-(model, layer, seed[, image])
streams, content-addressed reuse, read-only cached arrays, and byte
accounting that holds under concurrent callers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spgemm_device import DeviceStats
from repro.errors import ConfigError
from repro.kernels.layer_spec import ConvLayerSpec
from repro.nn import session, synthetic
from repro.nn.functional import run_model_functional
from repro.core import conv_operand
from repro.nn.models import (
    DEFAULT_MODELS,
    ModelDefinition,
    get_benchmark_scale,
    get_model,
)
from repro.nn.session import CompiledModel, compile_model, lowered_operand
from repro.nn.synthetic import (
    clear_operand_memo,
    conv_feature_map,
    conv_layer_weights,
    gemm_activations,
    gemm_layer_weights,
    operand_memo_bytes,
    operand_memo_size,
)
from repro.runtime.cache import ResultCache
from repro.serving import demo_definitions
from repro.serving.protocol import functional_run_digest
from repro.utils import blas

SETTINGS = settings(max_examples=4, deadline=None, derandomize=True)


def tiny_cnn() -> ModelDefinition:
    """A two-layer CNN small enough for the reference backend."""
    return ModelDefinition(
        name="Tiny-CNN",
        kind="cnn",
        pruning_scheme="AGP",
        dataset="synthetic",
        accuracy="-",
        conv_layers=(
            ConvLayerSpec(
                name="c1", in_channels=3, out_channels=8, height=12, width=12,
                kernel=3, stride=1, padding=1, weight_sparsity=0.5,
                activation_sparsity=0.4,
            ),
            ConvLayerSpec(
                name="c2", in_channels=8, out_channels=16, height=12, width=12,
                kernel=3, stride=2, padding=1, weight_sparsity=0.7,
                activation_sparsity=0.5,
            ),
        ),
    )


def assert_runs_equal(expected, actual):
    """Bit-exact equality of two per-image functional runs."""
    assert expected.model == actual.model
    assert len(expected.layers) == len(actual.layers)
    for exp, got in zip(expected.layers, actual.layers):
        assert exp.layer == got.layer
        assert exp.kind == got.kind
        assert exp.gemm_shape == got.gemm_shape
        assert exp.weight_sparsity == got.weight_sparsity
        assert exp.activation_sparsity == got.activation_sparsity
        assert exp.stats == got.stats
        assert np.array_equal(exp.output, got.output)


class TestBatchFoldingParity:
    @pytest.mark.parametrize(
        "model,scale",
        [("ResNet-18", 0.0625), ("BERT-base Encoder", 0.25), ("RNN", 0.125)],
    )
    def test_batch_matches_per_image_loop(self, model, scale):
        compiled = compile_model(model, scale=scale, seed=7, memo=False)
        run = compiled.run(3)
        assert run.batch == 3 and run.images == (0, 1, 2)
        for image in range(3):
            oracle = run_model_functional(
                model, scale=scale, seed=7, image=image, keep_outputs=True
            )
            assert_runs_equal(oracle, run.per_image[image])

    @SETTINGS
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.integers(0, 20), min_size=1, max_size=3),
    )
    def test_arbitrary_image_sets_and_seeds(self, seed, images):
        compiled = compile_model("ResNet-18", scale=0.0625, seed=seed, memo=False)
        run = compiled.run(images)
        assert run.images == tuple(images)
        for position, image in enumerate(images):
            oracle = run_model_functional(
                "ResNet-18", scale=0.0625, seed=seed, image=image,
                keep_outputs=True,
            )
            assert_runs_equal(oracle, run.per_image[position])

    @pytest.mark.parametrize("backend", ["vectorized", "blocked", "reference"])
    def test_every_backend_matches_its_oracle(self, backend):
        model = tiny_cnn()
        compiled = compile_model(model, scale=1.0, seed=3, backend=backend)
        run = compiled.run(2)
        for image in range(2):
            oracle = run_model_functional(
                model, seed=3, backend=backend, image=image, keep_outputs=True
            )
            assert_runs_equal(oracle, run.per_image[image])

    def test_duplicate_images_serve_identical_results(self):
        compiled = compile_model(tiny_cnn(), seed=1, memo=False)
        run = compiled.run([4, 4])
        assert_runs_equal(run.per_image[0], run.per_image[1])

    def test_run_image_equals_batch_of_one(self):
        compiled = compile_model("BERT-base Encoder", scale=0.25, seed=9)
        assert_runs_equal(compiled.run([5]).per_image[0], compiled.run_image(5))


class TestAutoEngine:
    @pytest.mark.parametrize(
        "model", DEFAULT_MODELS + tuple(demo_definitions())
    )
    def test_auto_runs_every_layer_on_the_blocked_engine(
        self, model, monkeypatch
    ):
        definition = demo_definitions().get(model, model)
        compiled = compile_model(definition, scale=0.0625, seed=3)
        backends = []
        real = session.device_spgemm

        def spy(*args, **kwargs):
            backends.append(kwargs["backend"])
            return real(*args, **kwargs)

        def fused(*args, **kwargs):
            raise AssertionError("the fused vectorized path ran")

        monkeypatch.setattr(session, "device_spgemm", spy)
        monkeypatch.setattr(session, "vectorized_numeric_product", fused)
        compiled.run(2)
        assert backends == ["blocked"] * (2 * len(compiled.layers))


def require_parallel_batches():
    if blas.current_blas_threads() <= 1:
        pytest.skip("OpenBLAS runs one thread: every batch runs sequentially")


def run_sequentially(compiled, images):
    """``compiled.run(images)`` with BLAS capped at one thread per core."""
    original = blas.blas_thread_counts()
    try:
        blas.cap_blas_threads(len(os.sched_getaffinity(0)))
        return compiled.run(images)
    finally:
        blas.restore_blas_threads(original)


@pytest.fixture()
def chunk_threads(monkeypatch):
    """Names of the threads that ran each chunk of every batch."""
    names = []
    original = CompiledModel._run_images

    def spy(self, images):
        names.append(threading.current_thread().name)
        return original(self, images)

    monkeypatch.setattr(CompiledModel, "_run_images", spy)
    return names


class TestParallelBatches:
    @pytest.mark.parametrize(
        "model,scale", [("ResNet-18", 0.0625), ("BERT-base Encoder", 0.25)]
    )
    @pytest.mark.parametrize("images", [(0, 1, 2), (4, 4)])
    def test_parallel_run_matches_sequential_run(
        self, model, scale, images, chunk_threads
    ):
        require_parallel_batches()
        compiled = compile_model(model, scale=scale, seed=7)
        sequential = run_sequentially(compiled, images)
        caller = threading.current_thread().name
        assert chunk_threads == [caller]
        chunk_threads.clear()
        parallel = compiled.run(images)
        assert chunk_threads[0] == caller
        assert len(chunk_threads) > 1
        assert all(name.startswith("repro-batch") for name in chunk_threads[1:])
        assert parallel.images == sequential.images == images
        for expected, actual in zip(sequential.per_image, parallel.per_image):
            assert_runs_equal(expected, actual)

    def test_pool_chunk_error_propagates_and_restores_blas(self, monkeypatch):
        require_parallel_batches()
        before = blas.blas_thread_counts()
        original = CompiledModel._run_images

        def failing(self, images):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("chunk failed")
            return original(self, images)

        monkeypatch.setattr(CompiledModel, "_run_images", failing)
        compiled = compile_model(tiny_cnn(), seed=1)
        with pytest.raises(RuntimeError, match="chunk failed"):
            compiled.run(2)
        assert blas.blas_thread_counts() == before

    def test_concurrent_batches_end_with_the_original_counts(self):
        require_parallel_batches()
        before = blas.blas_thread_counts()
        compiled = compile_model("ResNet-18", scale=0.0625, seed=2)
        runs = {}

        def serve(first):
            runs[first] = compiled.run([first, first + 10])

        threads = [
            threading.Thread(target=serve, args=(first,)) for first in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert blas.blas_thread_counts() == before
        assert sorted(runs) == [0, 1]  # neither thread raised
        for first, run in runs.items():
            oracle = run_model_functional(
                "ResNet-18", scale=0.0625, seed=2, image=first + 10,
                keep_outputs=True,
            )
            assert_runs_equal(oracle, run.per_image[1])

    def test_forked_child_runs_a_batch(self):
        # The sweep executor forks its workers; a child inherits the
        # parent's pool object but none of its threads.
        require_parallel_batches()
        compiled = compile_model(tiny_cnn(), seed=3)
        expected = [functional_run_digest(r) for r in compiled.run(2).per_image]
        context = multiprocessing.get_context("fork")
        recv, send = context.Pipe(duplex=False)

        def child():
            run = compiled.run(2)
            send.send([functional_run_digest(r) for r in run.per_image])

        process = context.Process(target=child)
        process.start()
        send.close()
        try:
            assert recv.poll(120), "the forked child's batch never finished"
            assert recv.recv() == expected
        finally:
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0


def finiteness_spec(kernel, stride, padding):
    return ConvLayerSpec(
        name="f", in_channels=2, out_channels=1, height=5, width=5,
        kernel=kernel, stride=stride, padding=padding, weight_sparsity=0.0,
        activation_sparsity=0.0,
    )


def lower(feature_map, spec):
    return lowered_operand(feature_map, spec)


class TestFinitenessProof:
    def test_finite_map_never_scans_the_lowered_matrix(self, monkeypatch):
        feature_map = np.ones((2, 5, 5), dtype=np.float32)
        scanned = []
        isfinite = np.isfinite

        def spy(array, *args, **kwargs):
            scanned.append(np.shape(array))
            return isfinite(array, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        operand = lower(feature_map, finiteness_spec(3, 1, 1))
        assert operand.all_finite
        assert scanned == [feature_map.shape]
        # Only the bitmap was lowered; the values lower on demand.
        assert operand.bitmap.dtype == np.bool_
        assert operand.dense.dtype == np.float64
        assert scanned == [feature_map.shape]

    def test_uncovered_inf_leaves_the_operand_finite(self):
        # Kernel 1 at stride 2 reads even columns only.
        feature_map = np.ones((2, 5, 5), dtype=np.float32)
        feature_map[0, 2, 1] = np.inf
        operand = lower(feature_map, finiteness_spec(1, 2, 0))
        assert operand.all_finite

    def test_covered_inf_makes_the_operand_non_finite(self):
        feature_map = np.ones((2, 5, 5), dtype=np.float32)
        feature_map[0, 2, 2] = np.inf
        operand = lower(feature_map, finiteness_spec(1, 2, 0))
        assert not operand.all_finite

    @pytest.mark.parametrize("backend", ["vectorized", "blocked"])
    def test_covered_inf_matches_the_oracle(self, monkeypatch, backend):
        import repro.nn.functional as functional
        import repro.nn.session as session

        real = session.conv_feature_map

        def with_inf(model, spec, seed, image=0, scale=1.0, memo=False):
            feature_map = real(model, spec, seed, image=image, scale=scale)
            if spec.name == "c1":
                feature_map = feature_map.copy()
                feature_map[1, 4, 4] = np.inf
            return feature_map

        # Both sides see the inf, so both take the exact per-step path.
        monkeypatch.setattr(session, "conv_feature_map", with_inf)
        monkeypatch.setattr(functional, "conv_feature_map", with_inf)
        model = tiny_cnn()
        run = compile_model(model, seed=3, backend=backend, memo=False).run(2)
        for image in range(2):
            oracle = run_model_functional(
                model, seed=3, backend=backend, image=image, keep_outputs=True
            )
            assert not np.isfinite(oracle.layers[0].output).all()
            assert_runs_equal(oracle, run.per_image[image])


ZOO_CNNS = [name for name in DEFAULT_MODELS if get_model(name).kind == "cnn"]


class TestImplicitLowering:
    @pytest.mark.parametrize("model", ZOO_CNNS)
    def test_sessions_lower_only_the_bitmap(self, model, monkeypatch):
        # At benchmark scale, through the default backend: only boolean
        # maps reach the session's lower_windows, the lowered values
        # are never built, and no product allocates, beside its output,
        # as many bytes as the float64 lowered matrix would take.
        lowered_dtypes = []
        real_lower = session.lower_windows
        real_spgemm = session.device_spgemm
        calls = []

        def lower_spy(padded, *args):
            lowered_dtypes.append(padded.dtype)
            return real_lower(padded, *args)

        def no_values(*args):
            raise AssertionError("the lowered values were built")

        def spgemm_spy(a, b, **kwargs):
            current, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = real_spgemm(a, b, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
            rows, steps = a.shape
            calls.append((peak - current - result.output.nbytes, rows * steps * 8))
            return result

        monkeypatch.setattr(session, "lower_windows", lower_spy)
        monkeypatch.setattr(session, "device_spgemm", spgemm_spy)
        monkeypatch.setattr(conv_operand.ConvOperand, "dense", property(no_values))
        compiled = compile_model(
            model, scale=get_benchmark_scale(model), memo=False
        )
        tracemalloc.start()
        try:
            compiled.run_image(0)
        finally:
            tracemalloc.stop()
        assert lowered_dtypes == [np.dtype(bool)] * len(compiled.layers)
        assert len(calls) == len(compiled.layers)
        for transient, lowered_bytes in calls:
            assert transient < lowered_bytes


class TestFusedStats:
    def test_layer_stats_sum_over_images(self):
        compiled = compile_model("ResNet-18", scale=0.0625, seed=5)
        run = compiled.run(4)
        fused = run.layer_stats()
        assert len(fused) == len(compiled.layers)
        for index, stats in enumerate(fused):
            expected = DeviceStats.summed(
                image.layers[index].stats for image in run.per_image
            )
            assert stats == expected
        total = run.total_stats()
        assert total.warp.ohmma_issued == run.ohmma_issued
        assert total.warp.ohmma_dense == run.ohmma_dense
        assert run.ohmma_issued == sum(r.ohmma_issued for r in run.per_image)

    def test_weight_footprint_accounting(self):
        compiled = compile_model("BERT-base Encoder", scale=0.25, seed=5)
        assert 0 < compiled.weight_bytes_encoded() < compiled.weight_bytes_dense()


class TestOperandMemo:
    def setup_method(self):
        clear_operand_memo()

    def teardown_method(self):
        clear_operand_memo()

    def test_weights_memoized_across_compiles(self):
        spec = tiny_cnn().conv_layers[0]
        first = conv_layer_weights("Tiny-CNN", spec, seed=2, memo=True)
        second = conv_layer_weights("Tiny-CNN", spec, seed=2, memo=True)
        assert first is second
        assert not first.flags.writeable
        fresh = conv_layer_weights("Tiny-CNN", spec, seed=2, memo=False)
        assert fresh is not first
        assert np.array_equal(fresh, first)

    def test_memo_keys_distinguish_seed_image_and_scale(self):
        spec = tiny_cnn().conv_layers[0]
        base = conv_feature_map("Tiny-CNN", spec, seed=2, image=0, memo=True)
        assert conv_feature_map("Tiny-CNN", spec, seed=2, image=1, memo=True) is not base
        assert conv_feature_map("Tiny-CNN", spec, seed=3, image=0, memo=True) is not base
        assert (
            conv_feature_map("Tiny-CNN", spec, seed=2, image=0, scale=0.5, memo=True)
            is not base
        )
        assert conv_feature_map("Tiny-CNN", spec, seed=2, image=0, memo=True) is base
        assert operand_memo_size() == 4

    def test_memo_keys_hash_the_full_spec(self, monkeypatch):
        keys = []
        real = synthetic._memo_key

        def recording(kind, params):
            keys.append(real(kind, params))
            return keys[-1]

        monkeypatch.setattr(synthetic, "_memo_key", recording)
        conv = tiny_cnn().conv_layers[0]
        gemm = demo_definitions()["Demo-GEMM"].gemm_layers[0]
        for spec, synth, kind in (
            (conv, conv_feature_map, "conv-activations"),
            (gemm, gemm_activations, "gemm-activations"),
        ):
            keys.clear()
            synth("Tiny", spec, seed=2, image=1, scale=0.5, memo=True)
            # An equal spec built separately shares the key (and the
            # cached fields); one field apart changes it.
            synth("Tiny", dataclasses.replace(spec), 2, 1, 0.5, memo=True)
            changed = dataclasses.replace(spec, activation_sparsity=0.41)
            synth("Tiny", changed, seed=2, image=1, scale=0.5, memo=True)
            expected = ResultCache.key(
                f"synthetic-{kind}",
                {
                    "model": "Tiny",
                    "spec": dataclasses.asdict(spec),
                    "seed": 2,
                    "image": 1,
                    "scale": 0.5,
                },
            )
            assert keys[0] == keys[1] == expected
            assert keys[2] != expected

    def test_clear_resets_memo(self):
        spec = tiny_cnn().conv_layers[0]
        conv_layer_weights("Tiny-CNN", spec, seed=2, memo=True)
        assert operand_memo_size() == 1
        clear_operand_memo()
        assert operand_memo_size() == 0

    def test_blocked_gemm_weights_streams_are_stable(self):
        from repro.nn.models import get_model

        bert = get_model("BERT-base Encoder")
        spec = bert.gemm_layers[0]
        one = gemm_layer_weights(bert.name, spec, seed=4, weight_pattern="blocked")
        two = gemm_layer_weights(bert.name, spec, seed=4, weight_pattern="blocked")
        assert np.array_equal(one, two)

    def test_concurrent_callers_count_each_operand_once(self, monkeypatch):
        monkeypatch.setattr(synthetic, "MEMO_MAX_BYTES", 4 * 1024 * 1024)
        spec = ConvLayerSpec(
            name="m", in_channels=16, out_channels=1, height=64, width=64,
            kernel=1, stride=1, padding=0, weight_sparsity=0.0,
            activation_sparsity=0.5,
        )  # 256 KiB per map: 24 images overflow the 4 MiB cap

        def fetch(offset):
            for step in range(72):
                conv_feature_map(
                    "Memo", spec, seed=1, image=(step + offset) % 24, memo=True
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fetch, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        held = sum(array.nbytes for array in synthetic._MEMO.values())
        assert operand_memo_bytes() == held
        assert held <= synthetic.MEMO_MAX_BYTES

    def test_compiled_sessions_reuse_memoized_weights(self):
        compile_model("ResNet-18", scale=0.0625, seed=6, memo=True)
        before = operand_memo_size()
        compile_model("ResNet-18", scale=0.0625, seed=6, memo=True)
        assert operand_memo_size() == before  # second compile added nothing


class TestValidation:
    def test_rejects_bad_batch(self):
        compiled = compile_model("RNN", scale=0.25, seed=1)
        with pytest.raises(ConfigError):
            compiled.run(0)
        with pytest.raises(ConfigError):
            compiled.run([])

    def test_rejects_bad_scale_and_backend(self):
        with pytest.raises(ConfigError):
            compile_model("RNN", scale=0.0)
        with pytest.raises(ConfigError):
            compile_model("RNN", backend="gpu")
