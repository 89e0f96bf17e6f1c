"""Roofline-style memory system model.

The kernel cost models account for DRAM traffic explicitly (operand
loads in dense or compressed format, output write-back) and convert it
to cycles at the configured bandwidth.  On-chip reuse is captured by the
*reuse factor* each kernel chooses for its operands — e.g. a CUTLASS-like
tiled GEMM streams each input roughly ``output_tiles_along_the_other_dim``
times through L2 but only once from DRAM when the working set blocks
nicely, which is the behaviour modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hw.config import GpuConfig, V100_CONFIG


@dataclass(frozen=True)
class TrafficBreakdown:
    """DRAM traffic of one kernel invocation, in bytes.

    Attributes:
        a_bytes: bytes read for the left operand (or feature map).
        b_bytes: bytes read for the right operand (or weights).
        metadata_bytes: bytes read for sparse metadata (bitmaps, indices).
        output_bytes: bytes written for the result.
    """

    a_bytes: float = 0.0
    b_bytes: float = 0.0
    metadata_bytes: float = 0.0
    output_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Total DRAM traffic in bytes."""
        return self.a_bytes + self.b_bytes + self.metadata_bytes + self.output_bytes


class MemorySystem:
    """Converts DRAM traffic to cycles at the configured bandwidth."""

    def __init__(self, config: GpuConfig | None = None) -> None:
        self.config = config or V100_CONFIG

    def dram_cycles(self, total_bytes: float) -> float:
        """Cycles to move ``total_bytes`` through DRAM."""
        if total_bytes < 0:
            raise ConfigError("traffic must be non-negative")
        return total_bytes / self.config.dram_bytes_per_cycle
