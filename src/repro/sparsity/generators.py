"""Synthetic sparse matrix generator.

:func:`random_sparse_matrix` takes an explicit
:class:`numpy.random.Generator` so every experiment in
:mod:`repro.experiments` is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sparsity import distributions
from repro.utils.validation import check_probability

#: Placement patterns accepted by :func:`random_sparse_matrix`.
PATTERNS = ("uniform", "row_banded", "blocked", "clustered")


def random_sparse_matrix(
    shape: tuple[int, int],
    density: float,
    rng: np.random.Generator,
    pattern: str = "uniform",
    dtype: np.dtype = np.float32,
) -> np.ndarray:
    """Generate a dense array with the requested density of non-zeros.

    Args:
        shape: (rows, cols) of the matrix.
        density: target fraction of non-zero elements in [0, 1].
        rng: NumPy random generator (seeded by the caller).
        pattern: non-zero placement pattern, one of
            ``uniform`` / ``row_banded`` / ``blocked`` / ``clustered``.
        dtype: dtype of the returned array.

    Returns:
        Dense array whose zero pattern follows ``pattern``; non-zero
        values are drawn uniformly from [0.5, 1.5] so no generated value
        collides with zero.
    """
    check_probability(density, "density")
    if pattern == "uniform":
        mask = distributions.uniform_mask(shape, density, rng)
    elif pattern == "row_banded":
        mask = distributions.row_banded_mask(shape, density, rng)
    elif pattern == "blocked":
        mask = distributions.blocked_mask(shape, density, rng)
    elif pattern == "clustered":
        mask = distributions.clustered_mask(shape, density, rng)
    else:
        raise ConfigError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    values = rng.uniform(0.5, 1.5, size=shape).astype(dtype)
    return np.where(mask, values, np.zeros((), dtype=dtype))
