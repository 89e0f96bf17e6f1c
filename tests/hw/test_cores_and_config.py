"""Tests for the GPU config and the single-side sparse Tensor Core model."""

import pytest

from repro.errors import ConfigError
from repro.hw.config import (
    A100_CONFIG,
    GPU_PRESETS,
    GpuConfig,
    JETSON_XAVIER_CONFIG,
    T4_CONFIG,
    V100_CONFIG,
    get_gpu_config,
)
from repro.hw.gpu import GpuTimingModel
from repro.hw.sparse_tc import SingleSideSparseTensorCore, vector_wise_sparse_tensor_core
from repro.kernels.calibration import SPARSE_TC_DECODE_OVERHEAD


class TestGpuConfig:
    def test_v100_totals(self):
        assert V100_CONFIG.total_tensor_cores == 640
        assert V100_CONFIG.tensor_macs_per_cycle == 40960
        assert V100_CONFIG.cuda_fma_per_cycle == 5120
        assert V100_CONFIG.ohmma_slots_per_cycle == 320

    def test_v100_peak_tflops(self):
        assert V100_CONFIG.tensor_peak_tflops == pytest.approx(125.3, abs=0.5)

    def test_cycles_to_us(self):
        assert V100_CONFIG.cycles_to_us(1530) == pytest.approx(1.0)

    def test_bytes_per_cycle(self):
        assert V100_CONFIG.dram_bytes_per_cycle == pytest.approx(900 / 1.53)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            GpuConfig(num_sms=0)
        with pytest.raises(ConfigError):
            GpuConfig(clock_ghz=-1)


class TestGpuPresets:
    def test_presets_registered(self):
        assert GPU_PRESETS == {
            "v100": V100_CONFIG,
            "a100": A100_CONFIG,
            "t4": T4_CONFIG,
            "jetson-xavier": JETSON_XAVIER_CONFIG,
        }

    def test_a100_totals(self):
        assert A100_CONFIG.total_tensor_cores == 432
        assert A100_CONFIG.tensor_macs_per_cycle == 432 * 256
        # Third-gen Tensor Cores: ~312 TFLOPS dense FP16.
        assert A100_CONFIG.tensor_peak_tflops == pytest.approx(312, rel=0.01)

    def test_t4_is_smaller_and_slower_than_v100(self):
        assert T4_CONFIG.tensor_macs_per_cycle < V100_CONFIG.tensor_macs_per_cycle
        assert T4_CONFIG.dram_bandwidth_gbs < V100_CONFIG.dram_bandwidth_gbs
        assert T4_CONFIG.tdp_w == 70.0

    def test_embedded_preset_shrinks_everything(self):
        assert JETSON_XAVIER_CONFIG.num_sms == 8
        assert JETSON_XAVIER_CONFIG.ohmma_slots_per_cycle == 32
        assert JETSON_XAVIER_CONFIG.accumulation_banks == 16
        assert JETSON_XAVIER_CONFIG.accumulation_ports == 8

    def test_get_gpu_config_case_insensitive(self):
        assert get_gpu_config("A100") is A100_CONFIG
        assert get_gpu_config(" t4 ") is T4_CONFIG

    def test_get_gpu_config_overrides(self):
        config = get_gpu_config("v100", {"accumulation_buffer_kb": 8})
        assert config.accumulation_buffer_kb == 8
        assert config.num_sms == V100_CONFIG.num_sms
        assert V100_CONFIG.accumulation_buffer_kb == 4  # preset untouched

    def test_get_gpu_config_rejects_unknowns(self):
        with pytest.raises(ConfigError):
            get_gpu_config("h100")
        with pytest.raises(ConfigError):
            get_gpu_config("v100", {"not_a_field": 1})

    @pytest.mark.parametrize("preset", ["v100", "t4", "jetson-xavier"])
    def test_ohmma_issue_rate_matches_tensor_core_peak(self, preset):
        """Two 64-MAC Tensor Cores per sub-core retire one 8x16x1 OHMMA per
        cycle, so a dense GEMM costs the same cycles as outer products."""
        config = GPU_PRESETS[preset]
        timing = GpuTimingModel(config)
        m, n, k = 256, 512, 128
        dense = timing.dense_tensor_core_cycles(m, n, k, efficiency=1.0)
        outer = timing.ohmma_cycles(m * n * k / (8 * 16 * 1), efficiency=1.0)
        assert outer == pytest.approx(dense)
        assert config.ohmma_slots_per_cycle * 8 * 16 == config.tensor_macs_per_cycle


class TestSingleSideSparseTensorCores:
    def test_vector_wise_calibrated_to_paper_speedup(self):
        hardware = vector_wise_sparse_tensor_core()
        assert hardware.decode_overhead == SPARSE_TC_DECODE_OVERHEAD
        assert hardware.speedup_over_dense(0.75) == pytest.approx(1.86, abs=0.01)

    def test_vector_wise_cannot_exceed_75_percent(self):
        hardware = vector_wise_sparse_tensor_core()
        assert hardware.exploited_sparsity(0.95) == 0.75
        assert hardware.speedup_over_dense(0.95) == hardware.speedup_over_dense(0.75)

    def test_vector_wise_low_sparsity_gives_little(self):
        hardware = vector_wise_sparse_tensor_core()
        assert hardware.exploited_sparsity(0.2) == 0.0
        assert hardware.speedup_over_dense(0.2) < 1.0

    def test_speedup_monotone_in_sparsity(self):
        hardware = vector_wise_sparse_tensor_core()
        speedups = [hardware.speedup_over_dense(s) for s in (0.1, 0.3, 0.6, 0.8)]
        assert speedups == sorted(speedups)

    @pytest.mark.parametrize(
        "weight_sparsity,exploited",
        [(0.0, 0.0), (0.2, 0.0), (0.25, 0.25), (0.6, 0.5), (0.75, 0.75), (0.95, 0.75)],
    )
    def test_vector_wise_relative_time(self, weight_sparsity, exploited):
        """Time is the kept fraction of the largest supported ratio plus the
        fixed decode overhead."""
        hardware = vector_wise_sparse_tensor_core()
        assert hardware.exploited_sparsity(weight_sparsity) == exploited
        assert hardware.relative_time(weight_sparsity) == pytest.approx(
            1.0 - exploited + SPARSE_TC_DECODE_OVERHEAD
        )
        assert hardware.speedup_over_dense(weight_sparsity) == pytest.approx(
            1.0 / hardware.relative_time(weight_sparsity)
        )

    def test_non_positive_relative_time_rejected(self):
        hardware = SingleSideSparseTensorCore(supported_ratios=(0.75,), decode_overhead=-0.25)
        with pytest.raises(ConfigError):
            hardware.speedup_over_dense(0.8)

    @pytest.mark.parametrize("weight_sparsity", [-0.1, 1.5])
    def test_weight_sparsity_must_be_a_probability(self, weight_sparsity):
        with pytest.raises(ConfigError):
            vector_wise_sparse_tensor_core().relative_time(weight_sparsity)
