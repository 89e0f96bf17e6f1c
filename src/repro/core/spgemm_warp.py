"""Warp-level outer-product SpGEMM with OHMMA-step skipping (Figure 5).

A warp owns a ``TM x TN`` output tile and iterates over ``TK`` steps of
the reduction dimension.  Every step is one 32x32x1 outer product of a
condensed A column and a condensed B row, executed by the two
outer-product Tensor Cores of the warp's sub-core as up to eight
OHMMA.8161 instructions (4 groups of 8 on the A side x 2 groups of 16 on
the B side).  POPC on the operand bitmaps decides which of those eight
instructions are enabled; the rest are skipped by predication.

The functions here are the *functional + counting* model: they produce
the numerically correct output tile and the exact instruction counts.
Cycle timing is applied later by :mod:`repro.hw` / :mod:`repro.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.condense import CondensedVector, condense, quantized_steps
from repro.core.merge import MergeStats, merge_partial
from repro.core.outer_product import outer_product_step
from repro.errors import ShapeError
from repro.utils.tiling import ceil_div
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class WarpTileConfig:
    """Geometry of the warp-level SpGEMM.

    Attributes:
        tm: rows of the warp output tile (elements of one A column slice).
        tn: columns of the warp output tile (elements of one B row slice).
        tk: reduction steps handled per warp-tile invocation.
        ohmma_m: A-side rows covered by one OHMMA instruction (8).
        ohmma_n: B-side columns covered by one OHMMA instruction (16).
    """

    tm: int = 32
    tn: int = 32
    tk: int = 16
    ohmma_m: int = 8
    ohmma_n: int = 16

    @property
    def ohmma_per_set(self) -> int:
        """OHMMA instructions needed for one dense TM x TN x 1 set."""
        return ceil_div(self.tm, self.ohmma_m) * ceil_div(self.tn, self.ohmma_n)

    def ohmma_for(self, nnz_a: int, nnz_b: int) -> int:
        """OHMMA instructions enabled for a condensed (nnz_a, nnz_b) step."""
        return quantized_steps(nnz_a, self.ohmma_m) * quantized_steps(
            nnz_b, self.ohmma_n
        )


def ohmma_speedup(ohmma_dense: int, ohmma_issued: int) -> float:
    """Dense / issued OHMMA ratio: the one speedup rule of every run.

    When nothing was issued it is the dense count (every instruction
    skipped), or 1.0 when a dense run would issue none either.
    """
    if ohmma_issued == 0:
        return float(ohmma_dense) if ohmma_dense else 1.0
    return ohmma_dense / ohmma_issued


@dataclass
class WarpStats:
    """Instruction and operation counts of one (or more) warp tiles.

    Attributes:
        sets_total: number of 32x32x1 outer-product sets examined.
        sets_skipped: sets skipped entirely because one operand vector was
            all-zero (detected from the bitmap, no instruction issued).
        bohmma_issued: BOHMMA (1-bit outer product) instructions issued.
        popc_issued: POPC instructions issued to set predication bits.
        ohmma_issued: OHMMA.8161 instructions actually executed.
        ohmma_skipped: OHMMA instructions skipped by predication.
        ohmma_dense: OHMMA instructions a dense execution would issue —
            the denominator of the warp-level speedup.
        multiply_macs: useful multiply–accumulate operations performed.
        merge: accumulated gather/accumulate/scatter counts.
    """

    sets_total: int = 0
    sets_skipped: int = 0
    bohmma_issued: int = 0
    popc_issued: int = 0
    ohmma_issued: int = 0
    ohmma_skipped: int = 0
    ohmma_dense: int = 0
    multiply_macs: int = 0
    merge: MergeStats = field(default_factory=MergeStats)

    @property
    def instruction_speedup(self) -> float:
        """Dense-to-sparse ratio of issued OHMMA instructions.

        This is the first-order warp-level speedup of Figure 5: the dense
        execution issues ``ohmma_dense`` instructions while the sparse
        execution issues ``ohmma_issued``.
        """
        return ohmma_speedup(self.ohmma_dense, self.ohmma_issued)

    def merge_with(self, other: "WarpStats") -> None:
        """Fold another stats object into this one."""
        self.sets_total += other.sets_total
        self.sets_skipped += other.sets_skipped
        self.bohmma_issued += other.bohmma_issued
        self.popc_issued += other.popc_issued
        self.ohmma_issued += other.ohmma_issued
        self.ohmma_skipped += other.ohmma_skipped
        self.ohmma_dense += other.ohmma_dense
        self.multiply_macs += other.multiply_macs
        self.merge.merge_with(other.merge)


def warp_spgemm(
    a_tile: np.ndarray,
    b_tile: np.ndarray,
    config: WarpTileConfig | None = None,
    accumulator: np.ndarray | None = None,
    collect_positions: bool = False,
) -> tuple[np.ndarray, WarpStats]:
    """Run the warp-level SpGEMM on one pair of input tiles.

    Args:
        a_tile: dense (tm x tk) slice of matrix A (zeros included).
        b_tile: dense (tk x tn) slice of matrix B.
        config: warp tile geometry; defaults to the paper's 32x32x16.
        accumulator: optional (tm x tn) accumulator to add into (the
            Tensor Core accumulation buffer); a fresh zero buffer is used
            when omitted.
        collect_positions: forward to the merge step to record buffer
            access positions for the bank-conflict model.

    Returns:
        ``(output_tile, stats)`` where ``output_tile`` is numerically
        equal to ``accumulator + a_tile @ b_tile``.
    """
    config = config or WarpTileConfig()
    a_tile = check_2d(a_tile, "a_tile")
    b_tile = check_2d(b_tile, "b_tile")
    if a_tile.shape[1] != b_tile.shape[0]:
        raise ShapeError(
            f"reduction dims differ: A is {a_tile.shape}, B is {b_tile.shape}"
        )
    if a_tile.shape[0] > config.tm or b_tile.shape[1] > config.tn:
        raise ShapeError(
            f"tile exceeds warp tile size {config.tm}x{config.tn}: "
            f"A {a_tile.shape}, B {b_tile.shape}"
        )

    tm_actual, tk_actual = a_tile.shape
    tn_actual = b_tile.shape[1]
    if accumulator is None:
        accumulator = np.zeros((tm_actual, tn_actual), dtype=np.float64)
    elif accumulator.shape != (tm_actual, tn_actual):
        raise ShapeError(
            f"accumulator shape {accumulator.shape} does not match the "
            f"output tile ({tm_actual}, {tn_actual})"
        )

    stats = WarpStats()
    for k in range(tk_actual):
        a_vec: CondensedVector = condense(a_tile[:, k])
        b_vec: CondensedVector = condense(b_tile[k, :])
        stats.sets_total += 1
        stats.ohmma_dense += config.ohmma_per_set
        # Two POPC instructions per set read the operand bitmaps and set
        # the predication bits (Figure 15).
        stats.popc_issued += 2
        if a_vec.is_empty or b_vec.is_empty:
            stats.sets_skipped += 1
            stats.ohmma_skipped += config.ohmma_per_set
            continue
        stats.bohmma_issued += 1
        enabled = config.ohmma_for(a_vec.nnz, b_vec.nnz)
        stats.ohmma_issued += enabled
        stats.ohmma_skipped += config.ohmma_per_set - enabled
        partial = outer_product_step(a_vec, b_vec)
        stats.multiply_macs += partial.nnz
        step_merge = merge_partial(accumulator, partial, collect_positions)
        stats.merge.merge_with(step_merge)
    return accumulator, stats


def warp_speedup_levels(config: WarpTileConfig | None = None) -> dict[str, list[float]]:
    """The exploitable sparsity levels of a single warp (Section III-B3).

    Returns the A-side and B-side sparsity levels at which skipping can
    occur, e.g. ⟨0%, 25%, 50%, 75%⟩ for the A side of a 32-wide tile with
    8-element OHMMA granularity and ⟨0%, 50%⟩ for the B side with
    16-element granularity.
    """
    config = config or WarpTileConfig()
    a_groups = ceil_div(config.tm, config.ohmma_m)
    b_groups = ceil_div(config.tn, config.ohmma_n)
    a_levels = [1.0 - (g / a_groups) for g in range(a_groups, 0, -1)]
    b_levels = [1.0 - (g / b_groups) for g in range(b_groups, 0, -1)]
    return {"a": a_levels, "b": b_levels}
