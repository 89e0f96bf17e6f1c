"""Bit-level helpers used by the bitmap sparse encodings.

The paper's encoding (Section III-A) stores the position information of
non-zero elements as a dense bitmap.  On real hardware the bitmap lives in
32-bit registers and is manipulated with population-count (``POPC``) and
shift instructions (Section IV-B, Figure 11b).  These helpers provide the
same operations on NumPy arrays so that the functional model mirrors what
the hardware would do word by word.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

#: Number of bits per bitmap storage word, matching a GPU register.
WORD_BITS = 32

#: Per-byte population counts, built once at import time — ``popcount_words``
#: sits on the vectorized im2col hot path, so rebuilding the table per call
#: would dominate small-word workloads.
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into little-endian 32-bit words.

    Bit ``i`` of the input maps to bit ``i % 32`` of word ``i // 32``.
    The final word is zero-padded.

    Args:
        bits: one-dimensional boolean (or 0/1 integer) array.

    Returns:
        ``uint32`` array of length ``ceil(len(bits) / 32)``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ShapeError(f"pack_bits expects a 1-D array, got shape {bits.shape}")
    bits = bits.astype(bool)
    n_words = (bits.size + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros(n_words * WORD_BITS, dtype=bool)
    padded[: bits.size] = bits
    # numpy packbits is big-endian within a byte by default; request little.
    packed_bytes = np.packbits(padded, bitorder="little")
    return packed_bytes.view(np.uint32)


def pack_bits_rows(bits: np.ndarray) -> np.ndarray:
    """Pack every row of a boolean matrix into little-endian 32-bit words.

    The row-wise batch form of :func:`pack_bits`: bit ``w`` of row ``r``
    maps to bit ``w % 32`` of word ``(r, w // 32)``, with the final word
    of each row zero-padded.  This is how the word-level im2col engine
    holds all (channel, feature-map row) bitmaps at once.

    Args:
        bits: two-dimensional boolean (or 0/1 integer) array.

    Returns:
        ``uint32`` array of shape ``(rows, ceil(cols / 32))``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ShapeError(f"pack_bits_rows expects a 2-D array, got shape {bits.shape}")
    rows, width = bits.shape
    n_words = (width + WORD_BITS - 1) // WORD_BITS
    packed = np.packbits(bits.astype(bool), axis=1, bitorder="little")
    pad = n_words * 4 - packed.shape[1]
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint32).reshape(rows, n_words)


def prefix_popcount_words(words: np.ndarray) -> np.ndarray:
    """Row-wise exclusive prefix sum of per-word population counts.

    ``prefix_popcount_words(w)[r, i]`` is the number of set bits in words
    ``0 .. i-1`` of row ``r`` — the word-granular form of the running
    shifted-out-bit accumulation of Figure 11b, step S3.  Combined with a
    low-bit mask + POPC inside word ``i`` it yields the condensed-array
    offset of any bit position, for every row at once.
    """
    counts = popcount_words(words)
    if counts.ndim != 2:
        raise ShapeError(
            f"prefix_popcount_words expects 2-D packed words, got {counts.shape}"
        )
    out = np.zeros_like(counts)
    if counts.shape[1] > 1:
        np.cumsum(counts[:, :-1], axis=1, out=out[:, 1:])
    return out


def popcount(bits: np.ndarray) -> int:
    """Count the set bits of a boolean vector (the ``POPC`` instruction)."""
    return int(np.count_nonzero(np.asarray(bits)))


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word population count of packed ``uint32`` words.

    Accepts any array shape and returns ``int64`` counts of the same
    shape (one count per word).
    """
    words = np.ascontiguousarray(words, dtype=np.uint32)
    as_bytes = words.view(np.uint8).reshape(words.shape + (4,))
    return _BYTE_POPCOUNT[as_bytes].sum(axis=-1, dtype=np.int64)


def prefix_popcount(bits: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of a bit vector.

    ``prefix_popcount(b)[i]`` is the number of set bits strictly before
    position ``i``.  This is exactly the address-offset computation the
    sparse im2col performs when it accumulates shifted-out bits
    (Figure 11b, step S3): the offset of the value belonging to bit ``i``
    inside the condensed value array.
    """
    bits = np.asarray(bits).astype(np.int64)
    if bits.ndim != 1:
        raise ShapeError(f"prefix_popcount expects a 1-D array, got {bits.shape}")
    out = np.zeros_like(bits)
    if bits.size > 1:
        out[1:] = np.cumsum(bits[:-1])
    return out


def bitmap_outer(col_bits: np.ndarray, row_bits: np.ndarray) -> np.ndarray:
    """1-bit outer product of a column bitmap and a row bitmap.

    This is the functional semantics of the ``BOHMMA`` instruction
    (Section V-A2): the output bitmap marks the positions of the partial
    matrix that receive a non-zero product.
    """
    col_bits = np.asarray(col_bits, dtype=bool)
    row_bits = np.asarray(row_bits, dtype=bool)
    if col_bits.ndim != 1 or row_bits.ndim != 1:
        raise ShapeError("bitmap_outer expects two 1-D bit vectors")
    return np.outer(col_bits, row_bits)
