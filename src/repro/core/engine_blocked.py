"""Blocked functional SpGEMM engine — the default at every shape.

The vectorized engine (:mod:`repro.core.engine`) replays the condensed
outer-product semantics literally: one Python-level rank-1 update per
non-empty reduction step.  That is bit-identical to the reference loop
but still O(K) interpreter iterations, which caps Figure 21/22-sized
numeric SpGEMMs (a 2048^3 product spends seconds in the per-k loop).

This module applies the blocking the paper's thread-block tiling
(Figures 8-9) already describes, along one of two paths.  A reduction
step is *live* when its A column and its B row both hold at least one
non-zero — the same per-k occupancy the warp-bitmap counts expose.

K-panel path
    The reduction dimension is partitioned into K-panels of
    ``panel_tiles`` warp k-tiles (``WarpTileConfig.tk`` steps each).
    For every panel the live steps are selected (a panel with none is
    skipped without touching the operands), the live columns of A and
    rows of B are gathered into dense panel operands (a contiguous slice
    when the whole panel is live), and one BLAS-backed
    :func:`np.matmul` accumulates the panel's contribution, panels
    visited in ascending-k order.

Warp-tile path
    Each row tile of A (``WarpTileConfig.tm`` rows, one warp tile high)
    becomes one BLAS matmul over only the live steps where that tile
    holds a non-zero: ``out[r0:r1] = A[r0:r1, ks] @ B[ks, :]``.  A warp
    tile whose A side is empty issues nothing, as the two-level bitmap
    lets the hardware skip it (Section VI-D).  The per-tile step lists
    come from the segment occupancy of A's
    :class:`~repro.core.operands.OperandSummary`.

The path is picked by :func:`tile_share` — the share of (row tile, live
step) pairs where A's tile is non-empty, an O(K) dot product over the
summary the same call's statistics already built — against
:data:`TILE_PATH_MAX_SHARE`.  Block-pruned weights (RNN, BERT) sit at
0.05-0.10 and take the warp-tile path; dense-ish conv activations and
unstructured operands sit near 1 and take the K-panel path.

Either operand may be a plain ndarray or a pre-encoded
:class:`~repro.core.operands.EncodedOperand`.  A persistent encoded
operand caches its per-k non-zero counts, its float64 view, its summary
and — on the K-panel path — its *condensed K-panels*
(:meth:`~repro.core.operands.EncodedOperand.panels`): the candidate
steps and gathered panel blocks of the static side, built once per
session.  At multiply time the survivors of a panel are always a subset
of its candidates, so the static side of every panel matmul is either
the cached block or a gather from it.  The warp-tile path caches nothing
beyond the summary: the same code gathers every block from the float64
operands whether A is persistent or not.  The gathered values (and their
ascending-k order) are identical either way, so cached and uncached
runs stay bit-identical (asserted in
``tests/core/test_encoded_operands.py``).

Statistics are *not* re-derived: :func:`blocked_device_spgemm` composes
the same per-operand summaries
(:func:`repro.core.operands.device_stats_from_operands`) the vectorized
engine uses, so every :class:`DeviceStats` / ``WarpStats`` field stays
bit-identical to the reference backend by construction.

Accumulation-order guarantees
-----------------------------

Panels accumulate in ascending-k order, and a row tile's live steps are
summed by one matmul, but *within* one matmul the multiply-add order is
whatever the BLAS kernel picks.  Consequently:

* on integer-valued data (all products and partial sums exactly
  representable in float64) the output is exactly equal to the reference
  loop — addition of exactly-representable values is associative,
* on general float data the result may differ from the reference loop in
  the last bits; both are correct float64 evaluations of the same sum
  and agree to well within 2 float32 ulps (asserted by the Hypothesis
  parity suite in ``tests/core/test_engine_blocked.py``),
* the output does not depend on the BLAS thread count: OpenBLAS splits a
  matmul over output rows and columns, never over the reduction, so a
  server that caps its threads matches an uncapped oracle byte for byte
  (asserted in ``tests/core/test_engine_blocked.py``),
* non-finite operands (inf/NaN) always fall back to the per-step
  condensed path, because a dense panel product would form ``0 * inf =
  NaN`` partials the condensed hardware never evaluates.  The fallback
  is bit-identical to the reference loop, so non-finite parity stays
  exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.operands import (
    EncodedOperand,
    OperandSummary,
    as_gemm_operand,
    device_stats_from_operands,
)
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ShapeError

#: Warp k-tiles folded into one matmul panel.  With the paper's
#: ``tk = 16`` this makes 256-step panels: wide enough that BLAS
#: dominates the gather cost, narrow enough that all-empty panels are
#: still skipped on highly sparse operands.
DEFAULT_PANEL_TILES = 16

#: :func:`tile_share` below which the warp-tile path runs.  For a
#: block-pruned 4096 x 2048 A times a dense 2048 x 1024 B on a 2-vCPU
#: host the warp-tile path measured faster up to a share of 0.25-0.33,
#: depending on B's dtype and layout (tables under "Warp-tile skip" in
#: ``docs/architecture.md``).
TILE_PATH_MAX_SHARE = 0.3


def tile_share(summary: OperandSummary, alive: np.ndarray) -> float:
    """Share of (row tile, live step) pairs where A's row tile is non-empty.

    The warp-tile path multiplies exactly these pairs, the K-panel path
    every row tile of every live step, so this is the warp-tile path's
    share of the K-panel path's work.  O(K) over A's summary; ``alive``
    must hold at least one live step.
    """
    live_tiles = int(summary.nonempty_per_k[alive].sum())
    return live_tiles / (summary.n_segments * int(np.count_nonzero(alive)))


def _warp_tile_product(
    a_op: EncodedOperand,
    b_op: EncodedOperand,
    summary: OperandSummary,
    alive: np.ndarray,
    tm: int,
    output: np.ndarray,
) -> np.ndarray:
    """One matmul per ``tm``-row tile of A over the live steps it holds."""
    a64 = a_op.dense64
    # Cast once to C order: the row gathers below would be strided on
    # an F-ordered B (a session's transposed activations).
    b64 = np.ascontiguousarray(b_op.dense, dtype=np.float64)
    live = summary.occupancy & alive
    for tile, r0 in enumerate(range(0, output.shape[0], tm)):
        steps = np.flatnonzero(live[tile])
        if steps.size:
            # The rows of a tile with no live step stay zero.
            rows = slice(r0, r0 + tm)
            np.matmul(a64[rows, steps], b64[steps], out=output[rows])
    return output


def _panel_operand(
    op: EncodedOperand,
    panels,
    index: int,
    survivors: np.ndarray,
    k0: int,
    k1: int,
) -> np.ndarray:
    """The float64 panel block of one operand for the surviving steps.

    With condensed panels cached, the survivors are mapped into the
    stored candidate block; otherwise the block is a contiguous slice
    (whole panel alive) or a direct gather from the dense operand.  The
    values and their ascending-k order are identical on every path.
    """
    if panels is not None:
        cand = panels.candidates[index]
        block = panels.blocks[index]
        if survivors.size == cand.size:
            return block
        local = np.searchsorted(cand, survivors)
        return block[:, local] if op.side == "a" else block[local, :]
    dense64 = op.dense64
    if survivors.size == k1 - k0:
        return dense64[:, k0:k1] if op.side == "a" else dense64[k0:k1, :]
    return dense64[:, survivors] if op.side == "a" else dense64[survivors, :]


def blocked_numeric_product(
    a,
    b,
    config: WarpTileConfig | None = None,
    panel_tiles: int = DEFAULT_PANEL_TILES,
) -> np.ndarray:
    """``a @ b`` in float64 via warp-tile or K-panel blocked accumulation.

    See the module docstring for both paths, the rule that picks one and
    the accumulation-order guarantees.  Non-finite operands delegate to
    :func:`repro.core.engine.vectorized_numeric_product`, which never
    forms products with a zero operand.  Operands may be ndarrays or
    pre-encoded :class:`~repro.core.operands.EncodedOperand` objects.
    """
    from repro.core.engine import vectorized_numeric_product

    config = config or WarpTileConfig()
    if panel_tiles < 1:
        raise ShapeError(f"panel_tiles must be >= 1, got {panel_tiles}")
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    m_dim, k_dim = a_op.shape
    n_dim = b_op.shape[1]
    output = np.zeros((m_dim, n_dim), dtype=np.float64)
    alive = a_op.k_activity & b_op.k_activity
    if not alive.any():
        return output
    if not (a_op.all_finite and b_op.all_finite):
        # A dense panel matmul would evaluate 0 * inf = NaN partials the
        # condensed reference never forms; the per-step path is exact.
        return vectorized_numeric_product(
            a_op.dense,
            b_op.dense,
            a_col_nnz=a_op.k_nnz,
            b_row_nnz=b_op.k_nnz,
            a_finite=a_op.all_finite,
            b_finite=b_op.all_finite,
        )

    summary = a_op.segment_summary(config)
    if tile_share(summary, alive) < TILE_PATH_MAX_SHARE:
        return _warp_tile_product(a_op, b_op, summary, alive, config.tm, output)

    panel = config.tk * panel_tiles
    a_panels = a_op.panels(panel)
    b_panels = b_op.panels(panel)
    scratch = None  # allocated only if a second live panel accumulates
    first = True
    for index, k0 in enumerate(range(0, k_dim, panel)):
        k1 = min(k0 + panel, k_dim)
        survivors = np.flatnonzero(alive[k0:k1])
        if survivors.size == 0:
            # All-empty panel: the warp-bitmap already proves every step
            # in it is skippable, so the operands are never gathered.
            continue
        survivors += k0
        a_panel = _panel_operand(a_op, a_panels, index, survivors, k0, k1)
        b_panel = _panel_operand(b_op, b_panels, index, survivors, k0, k1)
        if first:
            # The first live panel writes the output directly: adding its
            # product to the zero initialisation is a redundant full
            # M x N pass (0.0 + x == x).
            np.matmul(a_panel, b_panel, out=output)
            first = False
        else:
            if scratch is None:
                scratch = np.empty((m_dim, n_dim), dtype=np.float64)
            np.matmul(a_panel, b_panel, out=scratch)
            output += scratch
    return output


def blocked_device_spgemm(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
    panel_tiles: int = DEFAULT_PANEL_TILES,
) -> "DeviceSpGemmResult":
    """Blocked functional device-level SpGEMM.

    Drop-in replacement for the vectorized engine (the default at every
    shape, see :func:`~repro.core.spgemm_device.resolve_backend`): the
    numeric product comes from :func:`blocked_numeric_product`, every
    statistics field from the shared closed-form operand summaries
    (:func:`repro.core.operands.device_stats_from_operands`) —
    bit-identical to both existing backends.  Either operand may be
    dense or pre-encoded.
    """
    from repro.core.spgemm_device import DeviceSpGemmResult

    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    stats = device_stats_from_operands(
        a_op, b_op, config, element_bytes=element_bytes
    )
    output = blocked_numeric_product(
        a_op, b_op, config=config, panel_tiles=panel_tiles
    )
    return DeviceSpGemmResult(output=output, stats=stats)
