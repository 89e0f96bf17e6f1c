"""Reproduction of *Dual-side Sparse Tensor Core* (ISCA 2021).

This package implements, in pure Python/NumPy, the full system described
in the paper:

* bitmap sparse encodings (one-level and hierarchical two-level),
* the outer-product bitmap SpGEMM algorithm (warp level and device level),
* the outer-product-friendly, bitmap-based implicit sparse im2col and the
  dual-side sparse convolution built on top of it,
* the ISA extensions (OHMMA / BOHMMA / SpWMMA) and a reduced-fidelity
  timing model of the modified Tensor Core hardware,
* calibrated cost models of the paper's baselines (CUTLASS, cuDNN,
  cuSparse, Sparse Tensor Core), and
* the DNN-model substrate (VGG-16, ResNet-18, Mask R-CNN, BERT-base, RNN)
  and pruning schemes used in the evaluation.

The most common entry points are re-exported here:

>>> import numpy as np
>>> from repro import SparseMatrix, spgemm
>>> a = SparseMatrix.from_dense(np.eye(64, dtype=np.float32))
>>> b = SparseMatrix.from_dense(np.eye(64, dtype=np.float32), order="row")
>>> result = spgemm(a, b)
>>> bool(np.allclose(result.dense, np.eye(64)))
True
"""

import importlib

from repro.errors import (
    ReproError,
    ShapeError,
    FormatError,
    ConfigError,
)
from repro.version import __version__

#: Heavy re-exports resolved lazily (PEP 562): the sweep runtime's
#: cached path (registry + cache + report) must import ``repro`` without
#: paying for NumPy and the execution engine behind ``repro.core.api``.
_LAZY_EXPORTS = {
    "SparseMatrix": "repro.core.api",
    "SpGemmResult": "repro.core.api",
    "SpConvResult": "repro.core.api",
    "spgemm": "repro.core.api",
    "spgemm_batched": "repro.core.api",
    "spconv": "repro.core.api",
    "sparse_im2col": "repro.core.api",
    "EncodedOperand": "repro.core.operands",
    "CompiledModel": "repro.nn.session",
    "SessionRun": "repro.nn.session",
    "compile_model": "repro.nn.session",
}


def __getattr__(name: str):
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

__all__ = [
    "SparseMatrix",
    "SpGemmResult",
    "SpConvResult",
    "spgemm",
    "spgemm_batched",
    "spconv",
    "sparse_im2col",
    "EncodedOperand",
    "CompiledModel",
    "SessionRun",
    "compile_model",
    "ReproError",
    "ShapeError",
    "FormatError",
    "ConfigError",
    "__version__",
]
