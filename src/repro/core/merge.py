"""Gather–accumulate–scatter merge of partial matrices (Figure 7).

The outer product trades the irregular dual-side multiplication for an
irregular *single-side* accumulation: every outer-product step produces a
sparse partial matrix that must be added into the accumulated output.
The paper merges with three sub-steps driven by the partial matrix's
bitmap:

1. **gather** — read the currently accumulated values at the positions
   marked by the bitmap,
2. **accumulate** — add the new partial values to them, and
3. **scatter / write back** — write the sums back to the same positions.

The functional model below performs exactly these steps and reports how
many buffer reads/writes they require, which the accumulation-buffer
timing model (:mod:`repro.hw.accumulation_buffer`) turns into cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.outer_product import PartialMatrix
from repro.errors import ShapeError


@dataclass
class MergeStats:
    """Operation counts of one or more merge steps.

    Attributes:
        gathers: number of accumulator elements read.
        accumulations: number of floating-point additions performed.
        scatters: number of accumulator elements written back.
        access_positions: flattened accumulator positions touched by each
            merge step (only recorded when ``collect_positions=True`` is
            requested — used by the cycle-accurate bank-conflict model).
    """

    gathers: int = 0
    accumulations: int = 0
    scatters: int = 0
    access_positions: list = field(default_factory=list)

    def merge_with(self, other: "MergeStats") -> None:
        """Fold another stats object into this one."""
        self.gathers += other.gathers
        self.accumulations += other.accumulations
        self.scatters += other.scatters
        self.access_positions.extend(other.access_positions)


def merge_partial(
    accumulator: np.ndarray,
    partial: PartialMatrix,
    collect_positions: bool = False,
) -> MergeStats:
    """Accumulate one bitmap-encoded partial matrix into ``accumulator``.

    Args:
        accumulator: dense (M x N) output tile, updated in place.
        partial: bitmap-encoded partial matrix of the same shape.
        collect_positions: when True, record the flattened accumulator
            positions written this step so the hardware model can replay
            them against the banked accumulation buffer.

    Returns:
        Operation counts for this merge step.
    """
    if accumulator.shape != partial.bitmap.shape:
        raise ShapeError(
            f"accumulator shape {accumulator.shape} does not match partial "
            f"matrix shape {partial.bitmap.shape}"
        )
    stats = MergeStats()
    if partial.nnz == 0:
        return stats
    # Step 1: gather — the bitmap tells us exactly which accumulator
    # entries participate; no searching is needed.
    mask = partial.bitmap
    gathered = accumulator[mask]
    # Step 2: accumulate.
    summed = gathered + partial.values
    # Step 3: scatter / write back.
    accumulator[mask] = summed
    stats.gathers = int(partial.nnz)
    stats.accumulations = int(partial.nnz)
    stats.scatters = int(partial.nnz)
    if collect_positions:
        flat = np.flatnonzero(mask.reshape(-1))
        stats.access_positions.append(flat)
    return stats
