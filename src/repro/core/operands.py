"""Pre-encoded GEMM operands: encode once, multiply many times.

The paper's premise (Section IV) is that the bitmap encoding of a matrix
is produced *once* and amortised across execution — pruned weights are
static for the lifetime of a model, yet the functional pipeline
historically re-derived every per-operand quantity (non-zero masks,
per-segment reductions, two-level encodings, float64 views) inside
every ``device_spgemm`` call.

:class:`EncodedOperand` is the session-lifetime carrier of all of that
per-side state.  Each cached quantity is exactly the reduction the
engines would have computed from the dense operand, so results stay
bit-identical whether an operand arrives dense or pre-encoded
(``tests/core/test_encoded_operands.py`` locks this down):

* :meth:`EncodedOperand.summary` — the per-side closed-form reductions
  behind :class:`~repro.core.spgemm_device.DeviceStats`.  Every
  cross-operand statistic is a dot product of per-``k`` vectors, so the
  summaries compose in O(K) via :func:`device_stats_from_operands`, the
  library's only instruction and traffic counter.
  Its per-segment occupancy also gives the blocked engine's warp-tile
  path its per-row-tile step lists.
* :meth:`EncodedOperand.two_level` — the hierarchical bitmap the
  reference backend walks (skipping its per-call ``from_dense``).
* :attr:`EncodedOperand.dense64` / :attr:`EncodedOperand.k_nnz` /
  :attr:`EncodedOperand.all_finite` — the numeric-path ingredients.

``device_spgemm`` (and therefore ``spgemm`` / ``sparse_conv2d``) and
:func:`device_stats_from_operands` accept an :class:`EncodedOperand`, a
:class:`~repro.formats.hierarchical.TwoLevelBitmapMatrix`, a
:class:`~repro.core.api.SparseMatrix` or a plain ndarray for either
side; :func:`as_gemm_operand` normalises them.  Operands wrapped from an
encoding object keep their caches attached to that object, so repeated
calls with the same encoding pay the reductions only once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ConfigError, ShapeError
from repro.utils.tiling import num_tiles
from repro.utils.validation import check_2d

#: Valid operand sides: ``"a"`` (left, reduction along columns) and
#: ``"b"`` (right, reduction along rows).
SIDES = ("a", "b")


def segment_nnz(mask: np.ndarray, tile: int, axis: int) -> np.ndarray:
    """Per-segment sums along ``axis`` in blocks of ``tile``, as int64.

    For ``axis=0`` a (rows, cols) array reduces to ``(ceil(rows/tile),
    cols)``; for ``axis=1`` the reduction runs over column blocks
    instead.  A ragged last block sums only the elements it holds.

    A boolean mask is counted in uint8 when a block's count cannot
    exceed 255; any other input (e.g. the int64 counts that the k-tile
    reduction of :func:`_build_summary` sums) keeps an int64
    accumulator.  Along a contiguous axis the blocks are reduced in place
    (``np.add.reduceat``); along a strided axis as whole-row additions
    (a reshape view), with no copy of the input either way.
    """
    if mask.dtype == np.bool_ and tile <= 255:
        # The same bytes as uint8: the reductions below cast nothing (a
        # cast would copy the whole mask first).
        mask, dtype = mask.view(np.uint8), np.uint8
    else:
        dtype = np.int64
    length = mask.shape[axis]
    if mask.strides[axis] == mask.itemsize:
        counts = np.add.reduceat(
            mask, np.arange(0, length, tile), axis=axis, dtype=dtype
        )
        return counts.astype(np.int64, copy=False)
    lines = mask if axis == 0 else mask.T
    full = length // tile
    counts = np.empty((num_tiles(length, tile), lines.shape[1]), dtype=np.int64)
    counts[:full] = (
        lines[: full * tile]
        .reshape(full, tile, lines.shape[1])
        .sum(axis=1, dtype=dtype)
    )
    if full < counts.shape[0]:
        counts[full] = lines[full * tile :].sum(axis=0, dtype=dtype)
    return counts if axis == 0 else counts.T


def tile_extents(dim: int, tile: int) -> np.ndarray:
    """Actual (edge-clipped) extent of each tile covering ``[0, dim)``."""
    n = num_tiles(dim, tile)
    extents = np.full(n, tile, dtype=np.int64)
    if n and dim % tile:
        extents[-1] = dim % tile
    return extents


def two_level_footprint_bytes(
    tile_nnz: np.ndarray,
    row_extents: np.ndarray,
    col_extents: np.ndarray,
    nnz: int,
    element_bytes: int,
) -> int:
    """Compressed size matching ``TwoLevelBitmapMatrix.footprint_bytes``.

    The element-bitmap bits are only stored for occupied tiles, and edge
    tiles store bitmaps of their clipped (not padded) shape — both
    properties of the encoder the reference path instantiates.
    """
    occupied = tile_nnz > 0
    areas = np.outer(row_extents, col_extents)
    element_bits = int(areas[occupied].sum())
    warp_bits = int(tile_nnz.size)
    return nnz * element_bytes + (warp_bits + element_bits + 7) // 8


@dataclass(frozen=True)
class OperandSummary:
    """Cached per-side closed-form reductions of one GEMM operand.

    All cross-operand :class:`~repro.core.spgemm_device.DeviceStats`
    fields factor into dot products of these per-``k`` vectors (see
    :func:`device_stats_from_operands`).

    Attributes:
        side: ``"a"`` or ``"b"``.
        shape: dense (rows, cols) of the operand.
        n_segments: output tiles along the non-reduction dimension
            (row tiles of A / column tiles of B).
        groups_per_k: quantised OHMMA operand groups summed over
            segments, per reduction step.
        nonempty_per_k: segments holding at least one non-zero, per step.
        occupancy: whether each segment holds a non-zero at each step —
            (segments, K) for A, (K, segments) for B; ``nonempty_per_k``
            is its sum over segments.
        nnz_per_k: non-zeros per reduction step (= per-column counts of
            A / per-row counts of B).
        occupied_tiles_per_ktile: warp tiles holding at least one
            non-zero, per k-tile (drives the two-level-bitmap skips).
        nnz: total non-zero count.
        footprint_bytes: compressed two-level-bitmap size in bytes.
        dense_bytes: dense operand size in bytes.
    """

    side: str
    shape: tuple[int, int]
    n_segments: int
    groups_per_k: np.ndarray
    nonempty_per_k: np.ndarray
    occupancy: np.ndarray
    nnz_per_k: np.ndarray
    occupied_tiles_per_ktile: np.ndarray
    nnz: int
    footprint_bytes: int
    dense_bytes: int


def _build_summary(
    mask: np.ndarray, side: str, config: WarpTileConfig, element_bytes: int
) -> OperandSummary:
    """One pass of the per-side reductions the engines' stats factor over,
    read from the operand's boolean non-zero mask."""
    rows, cols = mask.shape
    if side == "a":
        tile, quantum = config.tm, config.ohmma_m
        seg = segment_nnz(mask, tile, axis=0)  # (segments, K)
        occupancy = seg > 0
        groups = (seg + quantum - 1) // quantum
        groups_per_k = groups.sum(axis=0)
        nonempty_per_k = occupancy.sum(axis=0)
        nnz_per_k = seg.sum(axis=0)
        tile_nnz = segment_nnz(seg, config.tk, axis=1)  # (segments, k_tiles)
        occupied = (tile_nnz > 0).sum(axis=0)
        row_ext = tile_extents(rows, tile)
        col_ext = tile_extents(cols, config.tk)
    else:
        tile, quantum = config.tn, config.ohmma_n
        seg = segment_nnz(mask, tile, axis=1)  # (K, segments)
        occupancy = seg > 0
        groups = (seg + quantum - 1) // quantum
        groups_per_k = groups.sum(axis=1)
        nonempty_per_k = occupancy.sum(axis=1)
        nnz_per_k = seg.sum(axis=1)
        tile_nnz = segment_nnz(seg, config.tk, axis=0)  # (k_tiles, segments)
        occupied = (tile_nnz > 0).sum(axis=1)
        row_ext = tile_extents(rows, config.tk)
        col_ext = tile_extents(cols, tile)
    nnz = int(nnz_per_k.sum())
    return OperandSummary(
        side=side,
        shape=(rows, cols),
        n_segments=seg.shape[0] if side == "a" else seg.shape[1],
        groups_per_k=groups_per_k,
        nonempty_per_k=nonempty_per_k,
        occupancy=occupancy,
        nnz_per_k=nnz_per_k,
        occupied_tiles_per_ktile=occupied,
        nnz=nnz,
        footprint_bytes=two_level_footprint_bytes(
            tile_nnz, row_ext, col_ext, nnz, element_bytes
        ),
        dense_bytes=rows * cols * element_bytes,
    )


class EncodedOperand:
    """One GEMM operand plus every cached per-side derivation.

    Args:
        dense: the dense 2-D operand (zeros included).  The array is
            referenced, not copied — mutating it after encoding
            invalidates the caches silently.
        side: ``"a"`` (left operand, K along columns) or ``"b"`` (right
            operand, K along rows).
    """

    __slots__ = (
        "_dense",
        "side",
        "_dense64",
        "_k_nnz",
        "_finite",
        "_summaries",
        "_two_levels",
        "_source_encoding",
    )

    def __init__(self, dense: np.ndarray, side: str) -> None:
        if side not in SIDES:
            raise ConfigError(f"unknown operand side {side!r}; expected 'a' or 'b'")
        self._dense = check_2d(dense, f"operand {side}")
        self._start(side)

    def _start(self, side: str) -> None:
        """Empty caches for an operand of ``side``."""
        self.side = side
        self._dense64: "np.ndarray | None" = None
        self._k_nnz: "np.ndarray | None" = None
        self._finite: "bool | None" = None
        self._summaries: dict = {}
        self._two_levels: dict = {}
        self._source_encoding = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_a(cls, dense: np.ndarray) -> "EncodedOperand":
        """Encode a left (M x K) operand."""
        return cls(dense, "a")

    @classmethod
    def for_b(cls, dense: np.ndarray) -> "EncodedOperand":
        """Encode a right (K x N) operand."""
        return cls(dense, "b")

    @property
    def dense(self) -> np.ndarray:
        """The dense 2-D operand, zeros included."""
        return self._dense

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the dense operand."""
        return self.dense.shape

    def nonzero_mask(self) -> np.ndarray:
        """Boolean mask of the operand's non-zero elements."""
        return self.dense != 0

    # ------------------------------------------------------------------ #
    # Numeric-path caches
    # ------------------------------------------------------------------ #
    @property
    def dense64(self) -> np.ndarray:
        """Float64 view/copy of the operand (what the engines multiply)."""
        if self._dense64 is None:
            self._dense64 = self.dense.astype(np.float64, copy=False)
        return self._dense64

    @property
    def k_nnz(self) -> np.ndarray:
        """Non-zeros per reduction step (A columns / B rows), int64.

        Reuses a cached :class:`OperandSummary`'s ``nnz_per_k`` when one
        exists — the per-step counts are tile-geometry independent.
        """
        if self._k_nnz is None:
            for summary in self._summaries.values():
                self._k_nnz = summary.nnz_per_k
                break
            else:
                axis = 0 if self.side == "a" else 1
                self._k_nnz = np.count_nonzero(
                    self.nonzero_mask(), axis=axis
                ).astype(np.int64, copy=False)
        return self._k_nnz

    @property
    def k_activity(self) -> np.ndarray:
        """Boolean mask of reduction steps this operand contributes to."""
        return self.k_nnz > 0

    @property
    def nnz(self) -> int:
        """Total non-zero count (from the cached per-k counts)."""
        return int(self.k_nnz.sum())

    @property
    def sparsity(self) -> float:
        """Zero fraction of the operand — bit-identical to
        :func:`repro.sparsity.statistics.sparsity` on the dense array,
        but served from the cached per-k counts."""
        rows, cols = self.shape
        size = rows * cols
        return 1.0 - float(self.nnz) / size if size else 0.0

    @property
    def all_finite(self) -> bool:
        """Whether every element is finite (non-finite operands force the
        bit-exact condensed numeric path).  Checked on the original
        array — float64 promotion preserves finiteness — so narrow
        operands scan half the bytes."""
        if self._finite is None:
            self._finite = bool(np.isfinite(self.dense).all())
        return self._finite

    # ------------------------------------------------------------------ #
    # Statistics / encodings
    # ------------------------------------------------------------------ #
    def summary(
        self, config: WarpTileConfig, element_bytes: int = 2
    ) -> OperandSummary:
        """Per-side closed-form reductions for the given tile geometry."""
        if self.side == "a":
            key = (config.tm, config.tk, config.ohmma_m, element_bytes)
        else:
            key = (config.tn, config.tk, config.ohmma_n, element_bytes)
        summary = self._summaries.get(key)
        if summary is None:
            summary = _build_summary(
                self.nonzero_mask(), self.side, config, element_bytes
            )
            self._summaries[key] = summary
        return summary

    def segment_summary(self, config: WarpTileConfig) -> OperandSummary:
        """A cached summary with ``config``'s segment tile, else a new one.

        The segment count, occupancy and per-step counts depend only on
        the segment tile (``tm`` for A, ``tn`` for B), not on the element
        width or OHMMA quantum, so any summary built with that tile
        serves — typically the one the same call's statistics just built.
        """
        tile = config.tm if self.side == "a" else config.tn
        for key, summary in self._summaries.items():
            if key[0] == tile:
                return summary
        return self.summary(config)

    def two_level(self, config: WarpTileConfig, element_bytes: int = 2):
        """The hierarchical two-level bitmap of this operand (cached).

        Side A encodes (tm, tk) tiles with column-major values, side B
        (tk, tn) tiles row-major — the layouts the reference device loop
        expects.  A matching encoding provided at wrap time (see
        :func:`as_gemm_operand`) is reused instead of re-encoded.
        """
        from repro.formats.hierarchical import TwoLevelBitmapMatrix

        if self.side == "a":
            tile_shape, order = (config.tm, config.tk), "col"
        else:
            tile_shape, order = (config.tk, config.tn), "row"
        key = (tile_shape, order, element_bytes)
        encoded = self._two_levels.get(key)
        if encoded is None:
            source = self._source_encoding
            if (
                source is not None
                and source.tile_shape == tile_shape
                and source.order == order
                and source.element_bytes == element_bytes
            ):
                encoded = source
            else:
                encoded = TwoLevelBitmapMatrix.from_dense(
                    self.dense,
                    tile_shape=tile_shape,
                    order=order,
                    element_bytes=element_bytes,
                )
            self._two_levels[key] = encoded
        return encoded

    def warm(
        self, config: WarpTileConfig, element_bytes: int = 2
    ) -> "EncodedOperand":
        """Eagerly populate the caches a serving session will hit."""
        self.summary(config, element_bytes)
        _ = self.dense64, self.k_nnz, self.all_finite
        return self


def as_gemm_operand(operand, side: str, name: str = "operand") -> EncodedOperand:
    """Normalise any accepted operand type to an :class:`EncodedOperand`.

    Accepted types:

    * :class:`EncodedOperand` — returned as-is (side must match),
    * :class:`~repro.formats.hierarchical.TwoLevelBitmapMatrix` — the
      wrapper is built once and attached to the encoding object, so
      repeated calls reuse every cache; the provided encoding itself
      serves the reference backend when its geometry matches,
    * :class:`~repro.core.api.SparseMatrix` (any object with ``dense``
      and ``encoding`` attributes) — wrapped and attached likewise,
    * a plain 2-D ndarray — wrapped fresh.

    Attached wrappers live as long as the encoding object does and keep
    whatever caches their use populated (float64 view, summaries) — that
    *is* the encode-once amortisation, but it means a retained encoding
    can hold a few times its matrix bytes; drop the encoding object to
    release everything.
    """
    if isinstance(operand, EncodedOperand):
        if operand.side != side:
            raise ConfigError(
                f"{name} was encoded for side {operand.side!r} but is used "
                f"as side {side!r}; encode it with EncodedOperand.for_{side}"
            )
        return operand
    if isinstance(operand, np.ndarray):
        return EncodedOperand(operand, side)

    attr = f"_gemm_operand_{side}"
    cached = getattr(operand, attr, None)
    if cached is not None:
        return cached

    from repro.formats.hierarchical import TwoLevelBitmapMatrix

    if isinstance(operand, TwoLevelBitmapMatrix):
        wrapped = EncodedOperand(operand.dense_view(), side)
        wrapped._source_encoding = operand
        object.__setattr__(operand, attr, wrapped)
        return wrapped
    if hasattr(operand, "dense") and hasattr(operand, "encoding"):
        wrapped = EncodedOperand(operand.dense, side)
        object.__setattr__(operand, attr, wrapped)
        return wrapped
    # Anything array-like falls through to the ndarray wrapper.
    return EncodedOperand(np.asarray(operand), side)


def device_stats_from_operands(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
) -> "DeviceStats":
    """The full :class:`DeviceStats` of the tiled dual-side SpGEMM ``a @ b``.

    The library's one instruction and traffic counter: the engines, the
    inference sessions and the kernel cost models all read their
    statistics here, without forming the product.  Either operand may be
    anything :func:`as_gemm_operand` accepts, plain arrays included.

    Every field is a dot product of the per-side per-``k`` summary
    vectors plus pure geometry, so a session that caches the static side
    pays only the O(K) composition per call.  Each one equals what the
    reference loop accumulates while visiting every (warp-tile pair,
    set): edge tiles count their clipped reduction extents, and empty
    warp tiles store no element bitmap.

    Raises:
        ShapeError: the inner dimensions differ.
    """
    from repro.core.merge import MergeStats
    from repro.core.spgemm_device import DeviceStats
    from repro.core.spgemm_warp import WarpStats

    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    if a_op.shape[1] != b_op.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a_op.shape} @ {b_op.shape}")
    sa = a_op.summary(config, element_bytes)
    sb = b_op.summary(config, element_bytes)
    m_dim, k_dim = sa.shape
    n_dim = sb.shape[1]

    ohmma_issued = int(np.sum(sa.groups_per_k * sb.groups_per_k))
    active_sets = int(np.sum(sa.nonempty_per_k * sb.nonempty_per_k))
    macs = int(np.sum(sa.nnz_per_k * sb.nnz_per_k))

    n_row_tiles, n_col_tiles = sa.n_segments, sb.n_segments
    n_k_tiles = num_tiles(k_dim, config.tk)
    pairs_active_per_k = sa.occupied_tiles_per_ktile * sb.occupied_tiles_per_ktile
    pairs_total = n_row_tiles * n_col_tiles * n_k_tiles
    pairs_skipped = pairs_total - int(pairs_active_per_k.sum())

    k_extents = tile_extents(k_dim, config.tk)
    sets_total = n_row_tiles * n_col_tiles * k_dim
    sets_skipped = sets_total - active_sets
    ohmma_dense = sets_total * config.ohmma_per_set
    popc_issued = 2 * int(np.sum(pairs_active_per_k * k_extents))

    warp = WarpStats(
        sets_total=sets_total,
        sets_skipped=sets_skipped,
        bohmma_issued=active_sets,
        popc_issued=popc_issued,
        ohmma_issued=ohmma_issued,
        ohmma_skipped=ohmma_dense - ohmma_issued,
        ohmma_dense=ohmma_dense,
        multiply_macs=macs,
        merge=MergeStats(gathers=macs, accumulations=macs, scatters=macs),
    )
    return DeviceStats(
        warp=warp,
        warp_tile_pairs_total=pairs_total,
        warp_tile_pairs_skipped=pairs_skipped,
        a_bytes_dense=sa.dense_bytes,
        b_bytes_dense=sb.dense_bytes,
        a_bytes_compressed=sa.footprint_bytes,
        b_bytes_compressed=sb.footprint_bytes,
        output_bytes=m_dim * n_dim * 4,
    )
