"""Pruning schemes used to produce the sparse models of Table II.

* :mod:`repro.pruning.agp` — Automated Gradual Pruning (magnitude pruning
  on a cubic sparsity schedule), used for the CNN and RNN models.
* :mod:`repro.pruning.movement` — movement-style block pruning for the
  BERT-base encoder (removes whole score blocks / attention heads, which
  produces the clustered zero patterns the two-level bitmap exploits).
* :mod:`repro.pruning.vector_wise` — the vector-wise pruning required by
  the Sparse Tensor Core baseline [72].
* :mod:`repro.pruning.structured_24` — A100-style 2:4 structured pruning.
* :mod:`repro.pruning.methods` — the named registry that threads every
  scheme through the model zoo (synthetic operands, functional oracle,
  compiled sessions) under a uniform ``pruning=`` string.

None of these change any accuracy number reported in the paper — the
reproduction only needs the *sparsity patterns* they induce.
"""

from repro.pruning.masks import magnitude_mask, apply_mask, mask_sparsity
from repro.pruning.agp import agp_target_sparsity, agp_prune
from repro.pruning.structured_24 import prune_2_4
from repro.pruning.vector_wise import vector_wise_prune
from repro.pruning.movement import block_movement_prune
from repro.pruning.methods import (
    PRUNING_METHODS,
    PruningMethod,
    get_pruning_method,
)

__all__ = [
    "magnitude_mask",
    "apply_mask",
    "mask_sparsity",
    "agp_target_sparsity",
    "agp_prune",
    "prune_2_4",
    "vector_wise_prune",
    "block_movement_prune",
    "PRUNING_METHODS",
    "PruningMethod",
    "get_pruning_method",
]
