"""Vector condensing: the step that turns irregular sparsity into dense work.

The outer-product Tensor Core avoids the inner-join problem by pushing
all non-zeros of an A column (or B row) together into a short dense
vector (Figure 4c).  The number of OHMMA instructions a warp must issue
is then determined only by the *length* of the condensed vectors, rounded
up to the instruction tile size — 8 elements on the A side and 16 on the
B side for the OHMMA.8161 instruction (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.utils.tiling import ceil_div


@dataclass(frozen=True)
class CondensedVector:
    """A sparse vector with its non-zeros pushed together.

    Attributes:
        length: logical length of the original vector.
        bitmap: boolean array marking the original non-zero positions.
        values: the non-zero values in original order (condensed).
    """

    length: int
    bitmap: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of non-zero elements."""
        return int(self.values.size)

    @property
    def is_empty(self) -> bool:
        """True when the vector contains no non-zero element."""
        return self.nnz == 0

    def padded(self, multiple: int) -> np.ndarray:
        """Condensed values zero-padded to a multiple of ``multiple``.

        This is the operand register image handed to the FEOP units: real
        hardware always reads full 8/16-element operand groups, with the
        tail positions padded by zeros (Figure 5).
        """
        target = ceil_div(max(self.nnz, 0), multiple) * multiple if self.nnz else 0
        out = np.zeros(target, dtype=self.values.dtype if self.nnz else np.float32)
        out[: self.nnz] = self.values
        return out


def condense(vector: np.ndarray) -> CondensedVector:
    """Condense a dense 1-D vector (push non-zeros to the front)."""
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ShapeError(f"condense expects a 1-D vector, got shape {vector.shape}")
    bitmap = vector != 0
    return CondensedVector(length=vector.size, bitmap=bitmap, values=vector[bitmap])


def quantized_steps(nnz: int, granularity: int) -> int:
    """Number of instruction-granularity groups needed for ``nnz`` values.

    ``quantized_steps(20, 8) == 3``: a condensed A column with 20
    non-zeros occupies three 8-element operand groups, so three of the
    four possible OHMMA rows are enabled (Figure 5's example).
    """
    if nnz < 0:
        raise ShapeError(f"nnz must be non-negative, got {nnz}")
    if nnz == 0:
        return 0
    return ceil_div(nnz, granularity)
