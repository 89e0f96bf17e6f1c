"""Whole-device timing model.

Kernel latency is modelled with a roofline: the kernel is either bound by
the Tensor-Core (or CUDA-core) compute stream or by DRAM traffic, plus a
fixed launch/drain overhead.  The per-method kernel models in
:mod:`repro.kernels` compute the two inputs (compute cycles and traffic)
and hand them to this class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.hw.memory import MemorySystem, TrafficBreakdown


@dataclass(frozen=True)
class KernelTiming:
    """Latency breakdown of one kernel invocation.

    Attributes:
        compute_cycles: cycles of the compute stream at full occupancy.
        memory_cycles: cycles needed to move the DRAM traffic.
        overhead_cycles: fixed launch / drain / synchronisation cycles.
        total_cycles: modelled kernel latency in cycles.
        time_us: modelled kernel latency in microseconds.
        bound: ``"compute"`` or ``"memory"`` — which roofline applies.
    """

    compute_cycles: float
    memory_cycles: float
    overhead_cycles: float
    total_cycles: float
    time_us: float
    bound: str


class GpuTimingModel:
    """Converts per-kernel compute and traffic estimates into latency."""

    #: Fixed kernel launch + pipeline drain overhead, in cycles.
    DEFAULT_OVERHEAD_CYCLES = 2000.0

    def __init__(self, config: GpuConfig | None = None) -> None:
        self.config = config or V100_CONFIG
        self.memory = MemorySystem(self.config)

    # ------------------------------------------------------------------ #
    # Compute-cycle helpers
    # ------------------------------------------------------------------ #
    def dense_tensor_core_cycles(
        self, m: int, n: int, k: int, efficiency: float = 0.75
    ) -> float:
        """Cycles for a dense M x N x K GEMM on the Tensor Cores.

        ``efficiency`` captures scheduling, tail and occupancy losses of a
        well-tuned library kernel (CUTLASS achieves roughly 70-85% of the
        Tensor-Core peak on large GEMMs).
        """
        self._check_efficiency(efficiency)
        macs = float(m) * float(n) * float(k)
        return macs / (self.config.tensor_macs_per_cycle * efficiency)

    def ohmma_cycles(self, num_ohmma: float, efficiency: float = 0.75) -> float:
        """Cycles to issue ``num_ohmma`` OHMMA.8161 instructions device-wide.

        Each sub-core issues one OHMMA per cycle, so the device retires
        ``ohmma_slots_per_cycle`` of them per cycle at perfect occupancy.
        """
        self._check_efficiency(efficiency)
        if num_ohmma < 0:
            raise ConfigError("num_ohmma must be non-negative")
        return num_ohmma / (self.config.ohmma_slots_per_cycle * efficiency)

    # ------------------------------------------------------------------ #
    # Roofline combination
    # ------------------------------------------------------------------ #
    def time_kernel(
        self,
        compute_cycles: float,
        traffic: TrafficBreakdown | float,
        overhead_cycles: float | None = None,
    ) -> KernelTiming:
        """Combine compute and memory into a kernel latency estimate.

        Args:
            compute_cycles: cycles of the compute stream.
            traffic: DRAM traffic (a :class:`TrafficBreakdown` or raw
                bytes).
            overhead_cycles: fixed overhead; defaults to
                :data:`DEFAULT_OVERHEAD_CYCLES`.
        """
        if compute_cycles < 0:
            raise ConfigError("compute_cycles must be non-negative")
        if overhead_cycles is None:
            overhead_cycles = self.DEFAULT_OVERHEAD_CYCLES
        if isinstance(traffic, TrafficBreakdown):
            total_bytes = traffic.total_bytes
        else:
            total_bytes = float(traffic)
        memory_cycles = self.memory.dram_cycles(total_bytes)
        bound = "compute" if compute_cycles >= memory_cycles else "memory"
        total = max(compute_cycles, memory_cycles) + overhead_cycles
        return KernelTiming(
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            overhead_cycles=overhead_cycles,
            total_cycles=total,
            time_us=self.config.cycles_to_us(total),
            bound=bound,
        )

    @staticmethod
    def _check_efficiency(efficiency: float) -> None:
        if not 0.0 < efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in (0, 1], got {efficiency}")
