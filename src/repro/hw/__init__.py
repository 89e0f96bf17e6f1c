"""Reduced-fidelity timing model of the modified V100 GPU (Section V).

The hardware model reproduces the mechanisms the paper's speedups rely
on rather than a full GPGPU-Sim port:

* :mod:`repro.hw.config` — the V100-class machine description.
* :mod:`repro.hw.accumulation_buffer` / :mod:`repro.hw.operand_collector`
  — the banked accumulation buffer, its dense and sparse access modes and
  the operand collector that hides bank conflicts (Figures 18-20).
* :mod:`repro.hw.memory` / :mod:`repro.hw.gpu` — a roofline memory system
  and the whole-device timing model (Tensor-Core MAC and OHMMA issue
  rates) used by the kernel cost models.
* :mod:`repro.hw.sparse_tc` — the behavioural model of the vector-wise
  Sparse Tensor Core baseline [72].
* :mod:`repro.hw.area_model` — the CACTI-style area/power estimation
  behind Table IV.
"""

from repro.hw.config import (
    GpuConfig,
    GPU_PRESETS,
    V100_CONFIG,
    A100_CONFIG,
    T4_CONFIG,
    JETSON_XAVIER_CONFIG,
    get_gpu_config,
)
from repro.hw.gpu import GpuTimingModel, KernelTiming
from repro.hw.accumulation_buffer import AccumulationBuffer, AccumulationBufferConfig
from repro.hw.operand_collector import OperandCollector
from repro.hw.area_model import AreaPowerModel, OverheadReport

__all__ = [
    "GpuConfig",
    "GPU_PRESETS",
    "V100_CONFIG",
    "A100_CONFIG",
    "T4_CONFIG",
    "JETSON_XAVIER_CONFIG",
    "get_gpu_config",
    "GpuTimingModel",
    "KernelTiming",
    "AccumulationBuffer",
    "AccumulationBufferConfig",
    "OperandCollector",
    "AreaPowerModel",
    "OverheadReport",
]
