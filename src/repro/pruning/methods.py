"""Named pruning-method registry driven by the model-zoo conformance grid.

The pruning modules implement the individual schemes of Table II; this
registry gives each one a stable name and a uniform signature so the
synthetic-operand layer (:mod:`repro.nn.synthetic`), the functional
oracle (:func:`repro.nn.functional.run_model_functional`) and the
compiled sessions (:func:`repro.nn.session.compile_model`) can select a
method by string and stay bit-identical to each other — the conformance
suite (``tests/conformance/``) crosses every zoo model with every entry
here.

Every method is a *deterministic, idempotent* transform of a dense 2-D
weight matrix:

* deterministic — the output is a pure function of ``(weights, sparsity,
  axis)``, so the same layer stream always yields the same pruned
  weights in the session and in the per-image oracle;
* idempotent — re-applying a method to its own output at the same target
  changes nothing (``tests/pruning/test_invariants.py`` locks this down
  with Hypothesis), which is what lets pruned checkpoints round-trip
  through the pipeline.

``axis`` is the GEMM reduction dimension of the weights: axis 1 for the
flattened ``(out_channels, K*K*C)`` convolution weights, axis 0 for the
``(K, N)`` GEMM weights.  The structured methods (2:4, vector-wise)
group along that axis and zero-pad ragged tails, so they apply to every
zoo layer regardless of its divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.pruning.agp import agp_prune
from repro.pruning.masks import apply_mask, magnitude_mask
from repro.pruning.movement import block_movement_prune
from repro.pruning.structured_24 import prune_2_4
from repro.pruning.vector_wise import vector_wise_prune


@dataclass(frozen=True)
class PruningMethod:
    """One named pruning scheme with a uniform apply signature.

    Attributes:
        name: registry key (also the ``pruning=`` value accepted by the
            model-zoo entry points).
        description: one-line summary for reports and docs.
        fixed_sparsity: achieved sparsity when the method ignores the
            requested target (2:4 is structurally pinned at 50% on full
            groups); ``None`` when the target is honoured.
        transform: ``f(weights, sparsity, axis) -> pruned`` on a dense
            2-D float matrix.
    """

    name: str
    description: str
    transform: Callable[[np.ndarray, float, int], np.ndarray]
    fixed_sparsity: "float | None" = None

    def apply(
        self, weights: np.ndarray, sparsity: float, axis: int = -1
    ) -> np.ndarray:
        """Prune ``weights`` to the target along the reduction ``axis``."""
        return self.transform(np.asarray(weights, dtype=np.float64), sparsity, axis)


def _magnitude(weights: np.ndarray, sparsity: float, axis: int) -> np.ndarray:
    return apply_mask(weights, magnitude_mask(weights, sparsity))


def _agp(weights: np.ndarray, sparsity: float, axis: int) -> np.ndarray:
    # Deterministic AGP (no fine-tuning noise): the cubic schedule's
    # intermediate thresholds are monotone, so five steps reach the same
    # support a longer schedule would.
    return agp_prune(weights, sparsity, steps=5)


def _movement(weights: np.ndarray, sparsity: float, axis: int) -> np.ndarray:
    return block_movement_prune(weights, sparsity, block=32)


def _structured_24(weights: np.ndarray, sparsity: float, axis: int) -> np.ndarray:
    return prune_2_4(weights, axis=axis, pad=True)


def _vector_wise(weights: np.ndarray, sparsity: float, axis: int) -> np.ndarray:
    return vector_wise_prune(weights, sparsity, vector_length=32, axis=axis, pad=True)


#: All named pruning methods, keyed by their ``pruning=`` string.
PRUNING_METHODS: "dict[str, PruningMethod]" = {
    method.name: method
    for method in (
        PruningMethod(
            name="magnitude",
            description="global unstructured magnitude pruning",
            transform=_magnitude,
        ),
        PruningMethod(
            name="agp",
            description="Automated Gradual Pruning (cubic magnitude schedule)",
            transform=_agp,
        ),
        PruningMethod(
            name="movement",
            description="block movement pruning (32x32 zero blocks)",
            transform=_movement,
        ),
        PruningMethod(
            name="2:4",
            description="A100-style 2-out-of-4 structured pruning",
            transform=_structured_24,
            fixed_sparsity=0.5,
        ),
        PruningMethod(
            name="vector-wise",
            description="Sparse Tensor Core vector-wise pruning (length 32)",
            transform=_vector_wise,
        ),
    )
}


def get_pruning_method(name: str) -> PruningMethod:
    """Look up a pruning method by registry name.

    Raises:
        ConfigError: the name is not registered.
    """
    try:
        return PRUNING_METHODS[name]
    except KeyError:
        raise ConfigError(
            f"unknown pruning method {name!r}; "
            f"available: {sorted(PRUNING_METHODS)}"
        ) from None
