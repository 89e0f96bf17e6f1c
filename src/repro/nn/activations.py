"""Activation functions."""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit — the source of natural activation sparsity."""
    return np.maximum(np.asarray(x), 0)
