"""Tests for the accumulation buffer, operand collector, memory, device
timing model and the area/power model."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.hw.accumulation_buffer import AccumulationBuffer, AccumulationBufferConfig
from repro.hw.area_model import AreaPowerModel
from repro.hw.config import GPU_PRESETS, GpuConfig, V100_CONFIG
from repro.hw.gpu import GpuTimingModel
from repro.hw.memory import MemorySystem, TrafficBreakdown
from repro.hw.operand_collector import OperandCollector


class TestOperandCollector:
    def test_no_accesses(self):
        collector = OperandCollector()
        assert collector.schedule([]).cycles == 0

    def test_single_conflict_free_batch_takes_one_cycle(self):
        collector = OperandCollector(num_banks=32)
        result = collector.schedule([np.arange(16)])
        assert result.cycles == 1
        assert result.conflict_cycles == 0

    def test_conflicting_batch_serialises_without_collector(self):
        collector = OperandCollector(num_banks=32)
        batch = np.zeros(4, dtype=int)  # four accesses to bank 0
        assert collector.schedule_without_collector([batch]).cycles == 4

    def test_collector_overlaps_instructions(self):
        """Accesses from younger instructions fill idle banks (Figure 19)."""
        collector = OperandCollector(num_banks=4, queue_depth=4)
        batches = [np.array([0, 0]), np.array([1, 1]), np.array([2, 2]), np.array([3, 3])]
        without = collector.schedule_without_collector(batches).cycles
        with_collector = collector.schedule(batches).cycles
        assert with_collector < without
        assert with_collector == 2

    def test_collector_never_slower_than_serial(self, rng):
        collector = OperandCollector(num_banks=32, queue_depth=4)
        batches = [rng.integers(0, 1024, size=16) for _ in range(20)]
        assert collector.schedule(batches).cycles <= collector.schedule_without_collector(
            batches
        ).cycles

    def test_all_accesses_scheduled(self, rng):
        collector = OperandCollector(num_banks=8, queue_depth=2)
        batches = [rng.integers(0, 64, size=5) for _ in range(7)]
        assert collector.schedule(batches).accesses == 35

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            OperandCollector(num_banks=0)
        with pytest.raises(ConfigError):
            OperandCollector(queue_depth=0)


class TestAccumulationBuffer:
    def test_capacity_words(self):
        assert AccumulationBufferConfig().capacity_words == 1024

    def test_functional_accumulate_and_read(self):
        buffer = AccumulationBuffer()
        buffer.accumulate(np.array([0, 33, 33]), np.array([1.0, 2.0, 3.0]))
        tile = buffer.read_tile(32, 32)
        assert tile[0, 0] == 1.0
        assert tile[1, 1] == 5.0
        buffer.reset()
        assert np.all(buffer.read_tile(32, 32) == 0)

    def test_accumulate_bounds_check(self):
        buffer = AccumulationBuffer()
        with pytest.raises(ShapeError):
            buffer.accumulate(np.array([5000]), np.array([1.0]))

    def test_read_tile_capacity_check(self):
        with pytest.raises(ShapeError):
            AccumulationBuffer().read_tile(64, 64)

    @pytest.mark.parametrize("field", ["num_banks", "ports"])
    def test_rejects_non_positive_banks_or_ports(self, field):
        with pytest.raises(ConfigError):
            AccumulationBuffer(AccumulationBufferConfig(**{field: 0}))

    def test_accumulate_length_check(self):
        with pytest.raises(ShapeError):
            AccumulationBuffer().accumulate(np.array([0, 1]), np.array([1.0]))

    def test_dense_mode_rejects_negative_count(self):
        with pytest.raises(ShapeError):
            AccumulationBuffer().dense_mode_cycles(-1)

    def test_dense_mode_one_cycle_per_ohmma(self):
        assert AccumulationBuffer().dense_mode_cycles(10) == 10

    def test_sparse_mode_with_collector_faster(self, rng):
        buffer = AccumulationBuffer()
        batches = [rng.integers(0, 1024, size=64) for _ in range(16)]
        with_collector = buffer.sparse_mode_cycles(batches, use_collector=True)
        without = buffer.sparse_mode_cycles(batches, use_collector=False)
        assert with_collector.cycles <= without.cycles

    def test_expected_sparse_cycles_behaviour(self):
        buffer = AccumulationBuffer()
        assert buffer.expected_sparse_cycles_per_merge(0) == 0.0
        assert buffer.expected_sparse_cycles_per_merge(32) == pytest.approx(1.0)
        assert buffer.expected_sparse_cycles_per_merge(
            128, use_collector=False
        ) > buffer.expected_sparse_cycles_per_merge(128, use_collector=True)


class TestMemoryAndTiming:
    def test_traffic_breakdown_total(self):
        traffic = TrafficBreakdown(a_bytes=10, b_bytes=20, metadata_bytes=5, output_bytes=15)
        assert traffic.total_bytes == 50

    def test_dram_cycles(self):
        memory = MemorySystem()
        assert memory.dram_cycles(0) == 0
        assert memory.dram_cycles(900e9 / 1.53e9) == pytest.approx(1.0, rel=1e-6)

    def test_negative_traffic_rejected(self):
        with pytest.raises(ConfigError):
            MemorySystem().dram_cycles(-1)

    def test_kernel_bound_selection(self):
        model = GpuTimingModel()
        compute_bound = model.time_kernel(1e6, TrafficBreakdown(a_bytes=1e3))
        memory_bound = model.time_kernel(10.0, TrafficBreakdown(a_bytes=1e9))
        assert compute_bound.bound == "compute"
        assert memory_bound.bound == "memory"
        assert memory_bound.total_cycles > memory_bound.compute_cycles

    def test_dense_tensor_core_cycles(self):
        model = GpuTimingModel()
        cycles = model.dense_tensor_core_cycles(4096, 4096, 4096, efficiency=1.0)
        assert cycles == pytest.approx(4096**3 / 40960)

    def test_efficiency_validation(self):
        model = GpuTimingModel()
        with pytest.raises(ConfigError):
            model.dense_tensor_core_cycles(8, 8, 8, efficiency=0.0)
        with pytest.raises(ConfigError):
            model.ohmma_cycles(-5)

    def test_ohmma_cycles_one_per_subcore_per_cycle(self):
        model = GpuTimingModel()
        assert model.ohmma_cycles(3200, efficiency=1.0) == pytest.approx(10.0)
        assert model.ohmma_cycles(3200, efficiency=0.5) == pytest.approx(20.0)

    def test_negative_compute_cycles_rejected(self):
        with pytest.raises(ConfigError):
            GpuTimingModel().time_kernel(-1.0, 0.0)

    def test_time_us_conversion(self):
        model = GpuTimingModel(GpuConfig(clock_ghz=1.0))
        timing = model.time_kernel(1000.0, 0.0, overhead_cycles=0.0)
        assert timing.time_us == pytest.approx(1.0)


class TestAreaPowerModel:
    def test_reproduces_table4_totals(self):
        report = AreaPowerModel().report()
        assert report.total_area_mm2 == pytest.approx(12.846, rel=0.02)
        assert report.total_power_w == pytest.approx(3.89, rel=0.05)
        assert report.area_fraction == pytest.approx(0.0158, abs=0.002)
        assert report.power_fraction == pytest.approx(0.016, abs=0.002)

    def test_component_breakdown_close_to_paper(self):
        report = AreaPowerModel().report()
        by_name = {component.name: component for component in report.components}
        assert by_name["Float Point Adders"].area_mm2 == pytest.approx(0.121, rel=0.05)
        assert by_name["Accumulation Operand Collector"].area_mm2 == pytest.approx(
            1.51, rel=0.05
        )
        assert by_name["Shared Accumulation Buffer"].area_mm2 == pytest.approx(
            11.215, rel=0.05
        )

    def test_buffer_area_scales_with_capacity(self):
        model = AreaPowerModel()
        assert (
            model.shared_accumulation_buffer(8.0).area_mm2
            > model.shared_accumulation_buffer(4.0).area_mm2
        )

    def test_invalid_buffer_size(self):
        with pytest.raises(ConfigError):
            AreaPowerModel().shared_accumulation_buffer(0)

    def test_as_rows_has_total(self):
        rows = AreaPowerModel().report().as_rows()
        assert rows[-1]["module"] == "Total overhead on V100"
        assert len(rows) == 4

    @pytest.mark.parametrize("preset", sorted(GPU_PRESETS))
    def test_components_scale_with_subcore_count(self, preset):
        """Every added structure is per sub-core, so area and power scale
        with the sub-core count from the calibrated V100 point."""
        config = GPU_PRESETS[preset]
        model = AreaPowerModel(config)
        assert model.num_subcores == config.num_sms * config.subcores_per_sm
        assert model.adder_count() == 128 * model.num_subcores
        ratio = model.num_subcores / AreaPowerModel(V100_CONFIG).num_subcores
        for scaled, base in zip(
            model.report().components, AreaPowerModel(V100_CONFIG).report().components
        ):
            assert scaled.name == base.name
            assert scaled.area_mm2 == pytest.approx(base.area_mm2 * ratio)
            assert scaled.power_w == pytest.approx(base.power_w * ratio)
