"""Synthetic sparse-tensor generation and sparsity statistics.

The paper's evaluation sweeps matrix sparsity from 0% to 99.9%
(Figure 21, Table III) and relies on the *uneven* distribution of
non-zeros across warp tiles to gain speedup beyond the per-warp
quantisation (Figure 6).  This subpackage generates matrices with
controlled sparsity and controlled distribution so both effects can be
studied and reproduced.
"""

from repro.sparsity.generators import random_sparse_matrix
from repro.sparsity.distributions import (
    uniform_mask,
    row_banded_mask,
    blocked_mask,
    clustered_mask,
)
from repro.sparsity.statistics import density, sparsity

__all__ = [
    "random_sparse_matrix",
    "uniform_mask",
    "row_banded_mask",
    "blocked_mask",
    "clustered_mask",
    "density",
    "sparsity",
]
