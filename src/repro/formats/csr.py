"""Compressed Sparse Row (CSR) format.

CSR is the encoding used by the cuSparse baseline (Figure 21) and by the
CSR-based sparse im2col baseline (Table III).  The paper attributes CSR's
poor im2col performance to the two additional data-dependent memory reads
(``indptr`` then ``indices``) required for every non-zero access — the
cost model in :mod:`repro.kernels.im2col_cost` charges exactly those
accesses, so the structural definition here matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class CsrMatrix:
    """Sparse matrix in compressed sparse row format.

    Attributes:
        shape: (rows, cols) of the logical matrix.
        indptr: row pointer array of length ``rows + 1``.
        indices: column index of each stored element, row by row.
        values: value of each stored element, row by row.
        element_bytes: byte width of one value (2 = FP16).
        index_bytes: byte width of one index entry (4 = int32).
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    element_bytes: int = 2
    index_bytes: int = 4

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values)
        if indptr.ndim != 1 or indptr.size != self.shape[0] + 1:
            raise FormatError(
                f"indptr must have length rows+1={self.shape[0] + 1}, "
                f"got {indptr.size}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise FormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if indices.shape != values.shape:
            raise FormatError("indices and values must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= self.shape[1]):
            raise FormatError("CSR column index out of bounds")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dense(cls, dense: np.ndarray, element_bytes: int = 2) -> "CsrMatrix":
        """Build a CSR matrix from a dense 2-D array."""
        dense = check_2d(dense, "dense")
        rows, cols = np.nonzero(dense)
        counts = np.bincount(rows, minlength=dense.shape[0])
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            shape=dense.shape,
            indptr=indptr,
            indices=cols,
            values=dense[rows, cols],
            element_bytes=element_bytes,
        )

    @property
    def nnz(self) -> int:
        """Number of stored non-zero elements."""
        return int(self.values.size)

    @property
    def density(self) -> float:
        """Fraction of elements that are non-zero."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the (column indices, values) of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise ShapeError(f"row index {i} out of range for shape {self.shape}")
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.values[start:stop]

    def row_nnz(self) -> np.ndarray:
        """Number of non-zeros in every row."""
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """Row index of every stored element (the ``indptr``-diff expansion).

        ``np.repeat`` over the per-row counts turns the compressed row
        pointers into one explicit row-id per stored value — the gather
        array every vectorised helper below indexes with instead of
        iterating :meth:`row` in Python.
        """
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), self.row_nnz()
        )

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense array (one scatter, no loop)."""
        out = np.zeros(self.shape, dtype=self.values.dtype if self.nnz else np.float32)
        out[self.row_ids(), self.indices] = self.values
        return out

    def transpose(self) -> "CsrMatrix":
        """Return the transpose, still in CSR (i.e. CSC of the original).

        Built directly from the index arrays: a stable sort by column
        index yields the transposed (row, value) stream already in
        row-major order — within one column the original rows ascend, so
        the result is identical to re-encoding the dense transpose
        (explicitly stored zeros, which ``from_dense`` never produces,
        are preserved rather than dropped).
        """
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.shape[1])
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CsrMatrix(
            shape=(self.shape[1], self.shape[0]),
            indptr=indptr,
            indices=self.row_ids()[order],
            values=self.values[order],
            element_bytes=self.element_bytes,
            index_bytes=self.index_bytes,
        )

    def footprint_bytes(self) -> int:
        """Bytes for values + indices + indptr, as stored in global memory."""
        return (
            self.nnz * (self.element_bytes + self.index_bytes)
            + self.indptr.size * self.index_bytes
        )
