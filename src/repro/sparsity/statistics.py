"""Sparsity statistics used for analysis and for the experiment reports."""

from __future__ import annotations

import numpy as np


def density(matrix: np.ndarray) -> float:
    """Fraction of elements that are non-zero."""
    matrix = np.asarray(matrix)
    return float(np.count_nonzero(matrix)) / matrix.size if matrix.size else 0.0


def sparsity(matrix: np.ndarray) -> float:
    """Fraction of elements that are zero (1 - density)."""
    return 1.0 - density(matrix)
