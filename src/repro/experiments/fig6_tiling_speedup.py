"""Figure 6 — speedup beyond the quantised levels via warp tiling.

A global matrix row whose average sparsity (37.5%) sits between the
exploitable per-warp levels still gains speedup because non-zeros are not
evenly distributed: some warp tiles end up sparse enough to skip OHMMA
groups (the paper's example reaches ~1.3x).  The experiment reproduces
that effect by comparing a perfectly even distribution against an uneven
one at identical average sparsity.
"""

from __future__ import annotations

import numpy as np

from repro.core.operands import device_stats_from_operands
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.sparsity.distributions import uniform_mask


def _matrix_from_mask(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    values = rng.uniform(0.5, 1.5, size=mask.shape)
    return np.where(mask, values, 0.0)


def _figure6_banded_mask(
    size: int, average_sparsity: float, rng: np.random.Generator
) -> np.ndarray:
    """Alternating 32-row bands: fully dense and 2x-average-sparsity bands.

    The construction mirrors the paper's example: half of the warps see a
    dense operand (no speedup) while the other half see twice the average
    sparsity and can skip OHMMA groups, so the global matrix gains even
    though its average sparsity sits between the quantised levels.
    """
    mask = np.ones((size, size), dtype=bool)
    sparse_band_density = 1.0 - 2.0 * average_sparsity
    for band_start in range(0, size, 64):
        band = slice(band_start + 32, min(band_start + 64, size))
        mask[band] = rng.random((mask[band].shape)) < sparse_band_density
    return mask


def run_fig6(
    size: int = 256,
    average_sparsity: float = 0.375,
    seed: int = 2021,
    config: GpuConfig | None = None,
) -> list[dict]:
    """Compare even vs uneven non-zero distributions at equal sparsity.

    Args:
        size: square matrix dimension.
        average_sparsity: global A-operand sparsity of both distributions.
        seed: RNG seed for the synthetic masks.
        config: GPU configuration used to convert the issue-limited OHMMA
            cycle count to a device execution time.
    """
    config = config or V100_CONFIG
    rng = np.random.default_rng(seed)
    density = 1.0 - average_sparsity
    b_dense = rng.uniform(0.5, 1.5, size=(size, size))

    rows = []
    for label, mask in (
        ("uniform", uniform_mask((size, size), density, rng)),
        ("imbalanced (Figure 6)", _figure6_banded_mask(size, average_sparsity, rng)),
    ):
        matrix_a = _matrix_from_mask(mask, rng)
        warp = device_stats_from_operands(matrix_a, b_dense).warp
        issue_cycles = warp.ohmma_issued / config.ohmma_slots_per_cycle
        rows.append(
            {
                "distribution": label,
                "a_sparsity": 1.0 - np.count_nonzero(matrix_a) / matrix_a.size,
                "ohmma_issued": warp.ohmma_issued,
                "ohmma_dense": warp.ohmma_dense,
                "instruction_speedup": warp.instruction_speedup,
                "issue_time_us": config.cycles_to_us(issue_cycles),
            }
        )
    return rows
