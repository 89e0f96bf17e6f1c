"""Argument-validation helpers.

Small, explicit checks that raise the package's own exception types with
actionable messages.  Used at public API boundaries; internal hot loops
avoid re-validating data they created themselves.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError


def check_2d(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``array`` as a 2-D ndarray or raise :class:`ShapeError`."""
    array = np.asarray(array)
    if array.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {array.shape}")
    return array


def check_positive(value: float, name: str = "value") -> float:
    """Raise :class:`ConfigError` unless ``value`` is strictly positive."""
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def check_probability(value: float, name: str = "value") -> float:
    """Raise :class:`ConfigError` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be within [0, 1], got {value}")
    return value
