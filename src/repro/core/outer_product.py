"""Outer-product primitives: multiply-value and multiply-bitmap.

One step of the proposed SpGEMM (Figure 2c) multiplies a condensed column
of A with a condensed row of B:

* **multiply-value** produces the non-zero values of the partial matrix
  (a dense ``nnz_a x nnz_b`` block, because condensing removed all
  zeros), and
* **multiply-bitmap** produces the partial matrix's bitmap by a 1-bit
  outer product of the two operand bitmaps (the BOHMMA instruction).

Together they form a bitmap-encoded partial matrix that the merge step
accumulates into the output tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.condense import CondensedVector
from repro.utils.bitops import bitmap_outer


@dataclass(frozen=True)
class PartialMatrix:
    """Bitmap-encoded partial matrix produced by one outer-product step.

    Attributes:
        bitmap: boolean (M x N) array marking non-zero positions of the
            partial matrix (the BOHMMA output).
        values: condensed non-zero values in row-major order over the
            bitmap (i.e. ``values[k]`` belongs to the k-th set bit when
            scanning the bitmap row by row).
    """

    bitmap: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of non-zero partial products."""
        return int(self.values.size)

    def to_dense(self) -> np.ndarray:
        """Materialise the partial matrix densely (for verification)."""
        out = np.zeros(self.bitmap.shape, dtype=np.float64)
        out[self.bitmap] = self.values
        return out


def multiply_value(a: CondensedVector, b: CondensedVector) -> np.ndarray:
    """Cross product of two condensed value vectors (Figure 2c, step 1).

    Returns the dense ``a.nnz x b.nnz`` block of partial products.  The
    multiplication is fully regular — this is the key benefit of the
    outer-product formulation: no inner join, no position matching.
    """
    if a.is_empty or b.is_empty:
        return np.zeros((a.nnz, b.nnz), dtype=np.float64)
    return np.outer(a.values.astype(np.float64), b.values.astype(np.float64))


def multiply_bitmap(a: CondensedVector, b: CondensedVector) -> np.ndarray:
    """1-bit outer product of the operand bitmaps (Figure 2c, step 2).

    Functional model of the BOHMMA instruction: the result marks which
    positions of the (length_a x length_b) partial matrix receive a
    non-zero product.
    """
    return bitmap_outer(a.bitmap, b.bitmap)


def outer_product_step(a: CondensedVector, b: CondensedVector) -> PartialMatrix:
    """One full outer-product step: multiply-value + multiply-bitmap.

    The condensed value block from :func:`multiply_value` is flattened in
    row-major order, which matches the row-major scan order of the set
    bits in the bitmap — so the pair (bitmap, values) is a consistent
    bitmap encoding of the partial matrix.
    """
    bitmap = multiply_bitmap(a, b)
    block = multiply_value(a, b)
    return PartialMatrix(bitmap=bitmap, values=block.reshape(-1))
