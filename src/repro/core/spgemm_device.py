"""Device-level tiled SpGEMM using the two-level bitmap (Figures 8 and 9).

The full SpGEMM is partitioned into thread-block / warp tiles.  Every
output tile of size ``TM x TN`` accumulates contributions from pairs of
input tiles along the reduction dimension, each pair processed by the
warp-level SpGEMM of :mod:`repro.core.spgemm_warp`.  The two-level bitmap
adds a warp-bit per input tile so a pair in which either tile is entirely
empty is skipped without issuing a single instruction.

Three execution paths are provided, all behind :func:`device_spgemm`'s
``backend=``:

* ``"blocked"`` — the blocked engine of
  :mod:`repro.core.engine_blocked`: BLAS matmuls of at most 256 live
  reduction steps over the whole matrix, or per non-empty row tile of a
  block-pruned A.
* ``"vectorized"`` — the NumPy per-step engine of
  :mod:`repro.core.engine`: numeric output and statistics bit-identical
  to the reference loop.
* ``"reference"`` — the original per-warp-tile Python loop, kept as the
  oracle the engines and the statistics function are cross-checked
  against (``tests/core/test_engine.py``,
  ``tests/core/test_engine_blocked.py``,
  ``tests/core/test_spgemm_device.py``) and as the only path able to
  replay accumulation-buffer access positions.

``backend="auto"`` (the default) runs the blocked engine at every
shape: calibrated across the zoo's and the demo models' layer shapes,
it beats the vectorized engine from the smallest products up
(``benchmarks/test_blocked_engine_speedup.py`` keeps the comparison as
a gate).

Both engines read their :class:`DeviceStats` from one statistics
function, :func:`repro.core.operands.device_stats_from_operands`, which
also serves callers that need the counts but not the product (the
kernel cost models, Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.operands import as_gemm_operand
from repro.core.spgemm_warp import WarpStats, WarpTileConfig, warp_spgemm
from repro.errors import ConfigError, ShapeError
from repro.utils.tiling import tile_ranges


@dataclass
class DeviceStats:
    """Aggregate statistics of a device-level SpGEMM.

    Attributes:
        warp: aggregated warp-level instruction counts.
        warp_tile_pairs_total: number of (A tile, B tile) pairs visited.
        warp_tile_pairs_skipped: pairs skipped thanks to the warp-bitmap
            (either input tile entirely empty).
        a_bytes_dense / b_bytes_dense: dense operand sizes in bytes.
        a_bytes_compressed / b_bytes_compressed: bitmap-encoded operand
            sizes in bytes (what the sparse kernel actually loads).
        output_bytes: size of the written output matrix in bytes.
    """

    warp: WarpStats = field(default_factory=WarpStats)
    warp_tile_pairs_total: int = 0
    warp_tile_pairs_skipped: int = 0
    a_bytes_dense: int = 0
    b_bytes_dense: int = 0
    a_bytes_compressed: int = 0
    b_bytes_compressed: int = 0
    output_bytes: int = 0

    @property
    def instruction_speedup(self) -> float:
        """Dense / sparse ratio of issued OHMMA instructions."""
        return self.warp.instruction_speedup

    @property
    def tile_skip_fraction(self) -> float:
        """Fraction of warp-tile pairs skipped by the warp-bitmap."""
        if self.warp_tile_pairs_total == 0:
            return 0.0
        return self.warp_tile_pairs_skipped / self.warp_tile_pairs_total

    def merge_with(self, other: "DeviceStats") -> None:
        """Fold another device-level stats object into this one.

        Used by the batch-folding session runtime: the fused run's
        statistics are by definition the sum of the per-image statistics
        it serves (:mod:`repro.nn.session`).
        """
        self.warp.merge_with(other.warp)
        self.warp_tile_pairs_total += other.warp_tile_pairs_total
        self.warp_tile_pairs_skipped += other.warp_tile_pairs_skipped
        self.a_bytes_dense += other.a_bytes_dense
        self.b_bytes_dense += other.b_bytes_dense
        self.a_bytes_compressed += other.a_bytes_compressed
        self.b_bytes_compressed += other.b_bytes_compressed
        self.output_bytes += other.output_bytes

    @classmethod
    def summed(cls, stats_list) -> "DeviceStats":
        """A fresh stats object equal to the sum of ``stats_list``."""
        total = cls()
        for stats in stats_list:
            total.merge_with(stats)
        return total


@dataclass(frozen=True)
class DeviceSpGemmResult:
    """Numeric result + statistics of a device-level SpGEMM."""

    output: np.ndarray
    stats: DeviceStats


#: Valid ``backend=`` values of :func:`device_spgemm`.
BACKENDS = ("auto", "blocked", "vectorized", "reference")

def resolve_backend(backend: str, collect_positions: bool = False) -> str:
    """Map a ``backend=`` argument to the concrete engine to run.

    ``"auto"`` is the blocked engine, whatever the shape: it is faster
    than the vectorized engine at every measured shape, from a 16 x 18 x
    12 demo layer (2.7x) up (the calibration table in
    ``docs/architecture.md``).  Its contract is the blocked engine's:
    identical statistics, and numerics exact on integer-valued data and
    within 2 float32 ulps otherwise; ``"vectorized"`` stays the
    bit-exact engine.  ``collect_positions`` always forces the reference
    loop — the per-step accumulation-buffer replay is inherently
    sequential.

    Raises:
        ConfigError: the name is not in :data:`BACKENDS`.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {list(BACKENDS)}"
        )
    if collect_positions:
        return "reference"
    if backend == "auto":
        return "blocked"
    return backend


def device_spgemm(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
    collect_positions: bool = False,
    backend: str = "auto",
) -> DeviceSpGemmResult:
    """Functional device-level SpGEMM.

    Args:
        a: (M x K) left operand — a dense ndarray (zeros included), or a
            pre-encoded operand that skips the per-call encoding work: an
            :class:`~repro.core.operands.EncodedOperand` (side ``"a"``),
            a :class:`~repro.formats.hierarchical.TwoLevelBitmapMatrix`
            or a :class:`~repro.core.api.SparseMatrix`.
        b: (K x N) right operand, same accepted types (side ``"b"``).
        config: warp tile geometry (defaults to the paper's 32x32x16).
        element_bytes: operand element width used for traffic accounting.
        collect_positions: record accumulation-buffer access positions
            (slow; only for small, hardware-replayed cases — forces the
            ``"reference"`` backend).
        backend: ``"auto"`` (default) runs the blocked engine
            (:mod:`repro.core.engine_blocked`); the names ``"blocked"``
            / ``"vectorized"`` (the per-step engine of
            :mod:`repro.core.engine`) / ``"reference"`` select one path
            explicitly.  All backends return identical statistics;
            numerics are bit-identical between ``"vectorized"`` and
            ``"reference"``, and exact on integer-valued data (within 2
            float32 ulps otherwise) for ``"blocked"``.  Pre-encoded
            operands never change the result — only how much per-call
            work is skipped.

    Returns:
        The product ``a @ b`` plus the statistics needed by the cost
        models.
    """
    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    if a_op.shape[1] != b_op.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a_op.shape} @ {b_op.shape}")
    m_dim, k_dim = a_op.shape
    n_dim = b_op.shape[1]
    resolved = resolve_backend(backend, collect_positions)
    if resolved == "blocked":
        from repro.core.engine_blocked import blocked_device_spgemm

        return blocked_device_spgemm(
            a_op, b_op, config=config, element_bytes=element_bytes
        )
    if resolved == "vectorized":
        from repro.core.engine import vectorized_device_spgemm

        return vectorized_device_spgemm(
            a_op, b_op, config=config, element_bytes=element_bytes
        )

    a = a_op.dense
    b = b_op.dense
    a_encoded = a_op.two_level(config, element_bytes)
    b_encoded = b_op.two_level(config, element_bytes)

    stats = DeviceStats()
    stats.a_bytes_dense = a.size * element_bytes
    stats.b_bytes_dense = b.size * element_bytes
    stats.a_bytes_compressed = a_encoded.footprint_bytes()
    stats.b_bytes_compressed = b_encoded.footprint_bytes()
    stats.output_bytes = m_dim * n_dim * 4  # FP32 accumulators written back

    output = np.zeros((m_dim, n_dim), dtype=np.float64)
    row_tiles = list(tile_ranges(m_dim, config.tm))
    col_tiles = list(tile_ranges(n_dim, config.tn))
    k_tiles = list(tile_ranges(k_dim, config.tk))

    for ti, (r0, r1) in enumerate(row_tiles):
        for tj, (c0, c1) in enumerate(col_tiles):
            accumulator = output[r0:r1, c0:c1]
            for tk, (k0, k1) in enumerate(k_tiles):
                stats.warp_tile_pairs_total += 1
                if a_encoded.tile_is_empty(ti, tk) or b_encoded.tile_is_empty(tk, tj):
                    stats.warp_tile_pairs_skipped += 1
                    # Dense execution would still have paid for this pair.
                    dense_cost = len(range(k0, k1)) * config.ohmma_per_set
                    stats.warp.ohmma_dense += dense_cost
                    stats.warp.ohmma_skipped += dense_cost
                    stats.warp.sets_total += k1 - k0
                    stats.warp.sets_skipped += k1 - k0
                    continue
                _, warp_stats = warp_spgemm(
                    a[r0:r1, k0:k1],
                    b[k0:k1, c0:c1],
                    config=config,
                    accumulator=accumulator,
                    collect_positions=collect_positions,
                )
                stats.warp.merge_with(warp_stats)
    return DeviceSpGemmResult(output=output, stats=stats)
