"""Synthetic per-layer operands: independent streams + memoization.

The model database records layer shapes and sparsities; the functional
pipeline materialises *synthetic* pruned weights and activations from
them.  Two properties matter for the serving runtime:

* **Independent streams.**  Every operand draws from its own
  :class:`numpy.random.Generator` seeded by ``(seed, model, layer,
  kind[, image])``, so a layer's weights are a pure function of
  ``(model, layer, seed[, pruning])`` and an image's activations of
  ``(model, layer, seed, image, scale)`` — regardless of which other
  layers or images are materialised, or in which order.  This is what lets a
  compiled session (:mod:`repro.nn.session`) encode weights once and
  still produce activations bit-identical to a fresh
  :func:`repro.nn.functional.run_model_functional` call.
* **Memoization.**  Sweeps re-materialise identical operands constantly
  (every batch size of a ``serve`` sweep compiles the same model; every
  image of a repeated run re-draws the same activations).  The ``memo=``
  flag caches operands under content-addressed keys built with the
  runtime cache's keying helper (:meth:`repro.runtime.cache.ResultCache.key`,
  hashed over the full layer spec, never just its name), returning
  read-only arrays so cached operands cannot be mutated in place.
  ``run_model_functional`` itself stays stateless (``memo=False``).
  Threads share the memo — a server's workers, a batch's chunks — so
  one lock covers every lookup, insert and eviction (not generation).
"""

from __future__ import annotations

import functools
import threading
import zlib
from collections import OrderedDict
from dataclasses import asdict

import numpy as np

from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec
from repro.pruning.methods import get_pruning_method
from repro.pruning.movement import block_movement_prune
from repro.sparsity.generators import random_sparse_matrix

#: Upper bound on memoized operands; least-recently-used first out.
MEMO_CAPACITY = 256

#: Upper bound on memoized operand *bytes* — full-resolution weight
#: matrices and feature maps run to tens of megabytes each, so the entry
#: cap alone would let a long-lived sweep pin gigabytes.
MEMO_MAX_BYTES = 256 * 1024 * 1024

_MEMO: "OrderedDict[str, np.ndarray]" = OrderedDict()
_memo_bytes = 0
_memo_lock = threading.Lock()


def clear_operand_memo() -> None:
    """Drop every memoized operand (used by tests and long-lived sweeps)."""
    global _memo_bytes
    with _memo_lock:
        _MEMO.clear()
        _memo_bytes = 0


def operand_memo_size() -> int:
    """Number of operands currently memoized."""
    return len(_MEMO)


def operand_memo_bytes() -> int:
    """Total bytes of the memoized operands."""
    return _memo_bytes


@functools.lru_cache(maxsize=1024)
def _spec_fields(spec: "ConvLayerSpec | GemmLayerSpec") -> dict:
    """``asdict(spec)``, built once per spec: the memo keys hash it on
    every operand of every image, and specs are frozen, so the fields
    never change.  Read-only by convention — callers only serialise it."""
    return asdict(spec)


def _memo_key(kind: str, params: dict) -> str:
    """Content-addressed memo key via the runtime cache's keying helper."""
    from repro.runtime.cache import ResultCache

    return ResultCache.key(f"synthetic-{kind}", params)


def _lookup(key: str) -> "np.ndarray | None":
    """The memoized operand under ``key``, marked recently used; lock held."""
    cached = _MEMO.get(key)
    if cached is not None:
        _MEMO.move_to_end(key)
    return cached


def _memoized(kind: str, params: dict, generate) -> np.ndarray:
    global _memo_bytes
    key = _memo_key(kind, params)
    with _memo_lock:
        cached = _lookup(key)
    if cached is not None:
        return cached
    generated = generate()
    if generated.nbytes > MEMO_MAX_BYTES:
        # An operand that alone exceeds the byte budget would drain
        # the whole cache only to thrash on every request.
        return generated
    generated.flags.writeable = False
    with _memo_lock:
        # Another thread may have generated the same key meanwhile: keep
        # its copy, so each key is held and counted once.
        cached = _lookup(key)
        if cached is not None:
            return cached
        while _MEMO and (
            len(_MEMO) >= MEMO_CAPACITY
            or _memo_bytes + generated.nbytes > MEMO_MAX_BYTES
        ):
            _memo_bytes -= _MEMO.popitem(last=False)[1].nbytes
        _MEMO[key] = generated
        _memo_bytes += generated.nbytes
    return generated


def layer_stream(
    seed: int, model: str, layer: str, kind: str, image: "int | None" = None
) -> np.random.Generator:
    """The dedicated RNG of one (model, layer, kind[, image]) operand.

    The string labels are folded into the seed entropy via CRC-32, so
    the stream is stable across processes and platforms.
    """
    entropy = [
        int(seed),
        zlib.crc32(model.encode()),
        zlib.crc32(layer.encode()),
        zlib.crc32(kind.encode()),
    ]
    if image is not None:
        entropy.append(int(image))
    return np.random.default_rng(entropy)


def scaled_conv_hw(spec: ConvLayerSpec, scale: float) -> tuple[int, int]:
    """Scaled input (H, W) of a conv layer, never below the kernel."""
    height = max(spec.kernel, int(round(spec.height * scale)))
    width = max(spec.kernel, int(round(spec.width * scale)))
    return height, width


def scaled_gemm_rows(spec: GemmLayerSpec, scale: float) -> int:
    """Scaled batch-row count M of a GEMM layer (at least one row)."""
    return max(1, int(round(spec.m * scale)))


def conv_layer_weights(
    model: str,
    spec: ConvLayerSpec,
    seed: int,
    memo: bool = False,
    pruning: "str | None" = None,
) -> np.ndarray:
    """Pruned (N, C, K, K) weights of one convolution layer.

    ``pruning=None`` (the default) draws an unstructured random support
    at the spec's weight sparsity — the zoo's native CNN pattern.  A
    method name from :data:`repro.pruning.methods.PRUNING_METHODS`
    instead draws *dense* weights from the same layer stream and prunes
    them with that method along the flattened ``K*K*C`` reduction axis,
    so structured patterns (2:4 groups, vectors, zero blocks) survive
    the lowering into the GEMM operand.
    """

    def generate() -> np.ndarray:
        rng = layer_stream(seed, model, spec.name, "weights")
        flat_k = spec.in_channels * spec.kernel * spec.kernel
        if pruning is None:
            flat = random_sparse_matrix(
                (spec.out_channels, flat_k), 1.0 - spec.weight_sparsity, rng
            )
        else:
            dense = rng.uniform(0.5, 1.5, size=(spec.out_channels, flat_k))
            flat = get_pruning_method(pruning).apply(
                dense, spec.weight_sparsity, axis=1
            )
        return flat.reshape(
            spec.out_channels, spec.in_channels, spec.kernel, spec.kernel
        )

    if not memo:
        return generate()
    params = {"model": model, "spec": _spec_fields(spec), "seed": seed}
    if pruning is not None:
        params["pruning"] = pruning
    return _memoized("conv-weights", params, generate)


def conv_feature_map(
    model: str,
    spec: ConvLayerSpec,
    seed: int,
    image: int = 0,
    scale: float = 1.0,
    memo: bool = False,
) -> np.ndarray:
    """Sparse (C, H, W) input feature map of one image for a conv layer."""

    def generate() -> np.ndarray:
        height, width = scaled_conv_hw(spec, scale)
        rng = layer_stream(seed, model, spec.name, "activations", image)
        return random_sparse_matrix(
            (spec.in_channels * height, width), 1.0 - spec.activation_sparsity, rng
        ).reshape(spec.in_channels, height, width)

    if not memo:
        return generate()
    return _memoized(
        "conv-activations",
        {
            "model": model,
            "spec": _spec_fields(spec),
            "seed": seed,
            "image": image,
            "scale": scale,
        },
        generate,
    )


def gemm_layer_weights(
    model: str,
    spec: GemmLayerSpec,
    seed: int,
    weight_pattern: str = "uniform",
    memo: bool = False,
    pruning: "str | None" = None,
) -> np.ndarray:
    """Pruned (K, N) weights of one GEMM layer.

    With ``pruning=None`` (the default) the zoo's native pattern
    applies: ``weight_pattern="blocked"`` uses block movement pruning
    (whole zero blocks, as for BERT); any other value prunes with a
    uniform random mask at the spec's weight sparsity.  A method name
    from :data:`repro.pruning.methods.PRUNING_METHODS` overrides the
    native pattern: the same dense draw is pruned by that method along
    the reduction axis (K, axis 0).
    """

    def generate() -> np.ndarray:
        rng = layer_stream(seed, model, spec.name, "weights")
        weights = rng.uniform(0.5, 1.5, size=(spec.k, spec.n))
        if pruning is not None:
            return get_pruning_method(pruning).apply(
                weights, spec.weight_sparsity, axis=0
            )
        if weight_pattern == "blocked":
            return block_movement_prune(weights, spec.weight_sparsity, block=32)
        mask = rng.random(weights.shape) >= spec.weight_sparsity
        return np.where(mask, weights, 0.0)

    if not memo:
        return generate()
    params = {
        "model": model,
        "spec": _spec_fields(spec),
        "seed": seed,
        "pattern": weight_pattern,
    }
    if pruning is not None:
        params["pruning"] = pruning
    return _memoized("gemm-weights", params, generate)


def gemm_activations(
    model: str,
    spec: GemmLayerSpec,
    seed: int,
    image: int = 0,
    scale: float = 1.0,
    memo: bool = False,
) -> np.ndarray:
    """Sparse (M, K) activations of one sequence for a GEMM layer."""

    def generate() -> np.ndarray:
        rng = layer_stream(seed, model, spec.name, "activations", image)
        return random_sparse_matrix(
            (scaled_gemm_rows(spec, scale), spec.k),
            1.0 - spec.activation_sparsity,
            rng,
        )

    if not memo:
        return generate()
    return _memoized(
        "gemm-activations",
        {
            "model": model,
            "spec": _spec_fields(spec),
            "seed": seed,
            "image": image,
            "scale": scale,
        },
        generate,
    )
