"""Exception hierarchy for the dual-side sparse Tensor Core reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being
able to distinguish shape problems from configuration problems.
"""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ShapeError(ReproError, ValueError):
    """An operand has an incompatible or invalid shape."""


class FormatError(ReproError, ValueError):
    """A sparse encoding is malformed or inconsistent.

    Raised, for example, when the number of set bits in a bitmap does not
    match the length of the associated value array.
    """


class ConfigError(ReproError, ValueError):
    """A hardware or kernel configuration value is invalid."""
