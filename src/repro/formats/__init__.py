"""Sparse matrix encodings used throughout the reproduction.

The paper compares three families of encodings (Table I):

* **CSR** — used by cuSparse and by the CSR-im2col baseline (Table III).
* **Bitmap** — the paper's choice: a dense bit matrix marking non-zero
  positions plus a condensed value vector (Figure 2b).
* **Two-level (hierarchical) bitmap** — a warp-tile-aware variant that
  adds a per-tile occupancy bit so empty warp tiles can be skipped as a
  whole (Figure 9).

Each encoding converts from and to a dense array with its own
``from_dense`` / ``to_dense``.
"""

from repro.formats.csr import CsrMatrix
from repro.formats.bitmap import BitmapMatrix
from repro.formats.hierarchical import TwoLevelBitmapMatrix, BitmapTile

__all__ = [
    "CsrMatrix",
    "BitmapMatrix",
    "TwoLevelBitmapMatrix",
    "BitmapTile",
]
