"""Machine description of the modelled GPU.

The defaults describe a Tesla V100 (the paper's simulation target on
Accel-Sim): 80 SMs, 4 sub-cores per SM, 2 Tensor Cores per sub-core, each
Tensor Core performing 64 FP16 multiply–accumulates per cycle, 1530 MHz
boost clock and 900 GB/s of HBM2 bandwidth.  The outer-product Tensor
Core keeps exactly the same multiplier budget (Section V-A), so the dense
peak throughput of the modified machine is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class GpuConfig:
    """Parameters of the simulated GPU.

    Attributes:
        name: human-readable configuration name.
        num_sms: number of streaming multiprocessors.
        subcores_per_sm: sub-cores (warp schedulers) per SM.
        tensor_cores_per_subcore: Tensor Cores per sub-core.
        macs_per_tensor_core: FP16 multiply–accumulates per Tensor Core
            per cycle (64 on Volta).
        cuda_cores_per_sm: FP32 CUDA cores per SM (they run the bitmap
            im2col's address-generation stream).
        clock_ghz: boost clock in GHz.
        dram_bandwidth_gbs: DRAM bandwidth in GB/s.
        shared_memory_per_sm_kb: shared memory capacity per SM in KiB.
        accumulation_buffer_kb: proposed per-sub-core accumulation buffer
            size in KiB (32x32 FP32 = 4 KiB).
        accumulation_banks: number of banks in the accumulation buffer.
        accumulation_ports: read/write ports usable per cycle.
        warp_size: threads per warp.
        die_area_mm2: total die area (V100: 815 mm^2).
        tdp_w: thermal design power in watts.
    """

    name: str = "Tesla V100"
    num_sms: int = 80
    subcores_per_sm: int = 4
    tensor_cores_per_subcore: int = 2
    macs_per_tensor_core: int = 64
    cuda_cores_per_sm: int = 64
    clock_ghz: float = 1.53
    dram_bandwidth_gbs: float = 900.0
    shared_memory_per_sm_kb: int = 96
    accumulation_buffer_kb: int = 4
    accumulation_banks: int = 32
    accumulation_ports: int = 16
    warp_size: int = 32
    die_area_mm2: float = 815.0
    tdp_w: float = 250.0

    def __post_init__(self) -> None:
        for field_name in (
            "num_sms",
            "subcores_per_sm",
            "tensor_cores_per_subcore",
            "macs_per_tensor_core",
            "cuda_cores_per_sm",
            "warp_size",
        ):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{field_name} must be positive")
        if self.clock_ghz <= 0 or self.dram_bandwidth_gbs <= 0:
            raise ConfigError("clock and bandwidth must be positive")

    # ------------------------------------------------------------------ #
    # Derived throughputs
    # ------------------------------------------------------------------ #
    @property
    def total_tensor_cores(self) -> int:
        """Total number of Tensor Cores on the device (640 on V100)."""
        return self.num_sms * self.subcores_per_sm * self.tensor_cores_per_subcore

    @property
    def tensor_macs_per_cycle(self) -> int:
        """Peak FP16 MACs per cycle across all Tensor Cores (40960)."""
        return self.total_tensor_cores * self.macs_per_tensor_core

    @property
    def tensor_peak_tflops(self) -> float:
        """Peak FP16 Tensor-Core throughput in TFLOPS (2 flops per MAC)."""
        return self.tensor_macs_per_cycle * 2 * self.clock_ghz / 1e3

    @property
    def cuda_fma_per_cycle(self) -> int:
        """Peak FP32 FMA per cycle on the CUDA cores (5120)."""
        return self.num_sms * self.cuda_cores_per_sm

    @property
    def ohmma_slots_per_cycle(self) -> int:
        """OHMMA.8161 instructions the device can issue per cycle.

        One OHMMA per sub-core per cycle (its two Tensor Cores execute
        the 8x16x1 product together), i.e. 320 on a V100-class device.
        """
        return self.num_sms * self.subcores_per_sm

    @property
    def dram_bytes_per_cycle(self) -> float:
        """DRAM bytes transferred per core clock cycle."""
        return self.dram_bandwidth_gbs / self.clock_ghz

    def cycles_to_us(self, cycles: float) -> float:
        """Convert a cycle count to microseconds at the configured clock."""
        return cycles / (self.clock_ghz * 1e3)


#: The default V100 configuration used throughout the evaluation.
V100_CONFIG = GpuConfig()

#: Ampere A100 (SXM4 40 GB).  The third-generation Tensor Core performs
#: 256 FP16 MACs per cycle, one per sub-core; HBM2e raises the DRAM
#: bandwidth to ~1.5 TB/s.  The accumulation-buffer proposal is scaled
#: with the larger shared-memory budget (Section V-B sizes the buffer to
#: one 32x32 FP32 tile per sub-core, unchanged).
A100_CONFIG = GpuConfig(
    name="A100-SXM4-40GB",
    num_sms=108,
    subcores_per_sm=4,
    tensor_cores_per_subcore=1,
    macs_per_tensor_core=256,
    cuda_cores_per_sm=64,
    clock_ghz=1.41,
    dram_bandwidth_gbs=1555.0,
    shared_memory_per_sm_kb=164,
    accumulation_buffer_kb=4,
    accumulation_banks=32,
    accumulation_ports=16,
    die_area_mm2=826.0,
    tdp_w=400.0,
)

#: Turing T4 — the small inference part (70 W, GDDR6).
T4_CONFIG = GpuConfig(
    name="Tesla T4",
    num_sms=40,
    subcores_per_sm=4,
    tensor_cores_per_subcore=2,
    macs_per_tensor_core=64,
    cuda_cores_per_sm=64,
    clock_ghz=1.59,
    dram_bandwidth_gbs=320.0,
    shared_memory_per_sm_kb=64,
    accumulation_buffer_kb=4,
    accumulation_banks=32,
    accumulation_ports=16,
    die_area_mm2=545.0,
    tdp_w=70.0,
)

#: Embedded-class device modelled on the Jetson AGX Xavier iGPU: eight
#: Volta SMs fed from shared LPDDR4x.  The accumulation buffer keeps the
#: 32x32 tile but with half the banks/ports, matching the narrower
#: datapath of the embedded part.
JETSON_XAVIER_CONFIG = GpuConfig(
    name="Jetson AGX Xavier",
    num_sms=8,
    subcores_per_sm=4,
    tensor_cores_per_subcore=2,
    macs_per_tensor_core=64,
    cuda_cores_per_sm=64,
    clock_ghz=1.377,
    dram_bandwidth_gbs=137.0,
    shared_memory_per_sm_kb=96,
    accumulation_buffer_kb=4,
    accumulation_banks=16,
    accumulation_ports=8,
    die_area_mm2=350.0,
    tdp_w=30.0,
)

#: Named device presets addressable from the sweep runtime and the CLI.
GPU_PRESETS: dict[str, GpuConfig] = {
    "v100": V100_CONFIG,
    "a100": A100_CONFIG,
    "t4": T4_CONFIG,
    "jetson-xavier": JETSON_XAVIER_CONFIG,
}


def get_gpu_config(
    name: str, overrides: "dict[str, object] | None" = None
) -> GpuConfig:
    """Resolve a preset name (case-insensitive) to a :class:`GpuConfig`.

    Args:
        name: a key of :data:`GPU_PRESETS` (e.g. ``"a100"``).
        overrides: optional field overrides applied on top of the preset
            (design points such as ``{"accumulation_buffer_kb": 8}``).

    Raises:
        ConfigError: unknown preset name or unknown override field.
    """
    key = name.strip().lower()
    if key not in GPU_PRESETS:
        raise ConfigError(
            f"unknown GPU preset {name!r}; available: {sorted(GPU_PRESETS)}"
        )
    config = GPU_PRESETS[key]
    if overrides:
        valid = {f.name for f in fields(GpuConfig)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ConfigError(f"unknown GpuConfig fields in overrides: {unknown}")
        config = replace(config, **overrides)
    return config
