"""Tests for the task executor and the sweep-grid API."""

import pytest

from repro.errors import ConfigError, ReproError
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentTask, execute_task, run_plan
from repro.runtime.plan import build_plan
from repro.runtime.sweep import SweepSpec, run_sweep


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path)


class TestExecuteTask:
    def test_runs_registered_experiment(self):
        rows = execute_task(ExperimentTask(experiment="table2"))
        assert len(rows) == 5
        assert all(isinstance(row, dict) for row in rows)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            execute_task(ExperimentTask(experiment="nope"))

    def test_gpu_preset_changes_device_aware_rows(self):
        v100 = execute_task(ExperimentTask(experiment="fig6", quick=True))
        jetson = execute_task(
            ExperimentTask(experiment="fig6", quick=True, gpu="jetson-xavier")
        )
        assert v100 != jetson
        # Instruction counts are device-independent; only timing shifts.
        assert [row["ohmma_issued"] for row in v100] == [
            row["ohmma_issued"] for row in jetson
        ]

    def test_explicit_v100_matches_default(self):
        default = execute_task(ExperimentTask(experiment="fig6", quick=True))
        explicit = execute_task(ExperimentTask(experiment="fig6", quick=True, gpu="v100"))
        assert default == explicit

    def test_gpu_override_design_point(self):
        stock = execute_task(ExperimentTask(experiment="fig19", quick=True))
        narrow = execute_task(
            ExperimentTask(
                experiment="fig19",
                quick=True,
                gpu="v100",
                gpu_overrides={"accumulation_banks": 4, "accumulation_ports": 2},
            )
        )
        assert narrow != stock

    def test_sweep_param_forwarded(self):
        small = execute_task(
            ExperimentTask(experiment="fig5", quick=True, params={"k_steps": 8})
        )
        default = execute_task(ExperimentTask(experiment="fig5", quick=True))
        assert small != default

    def test_unsupported_param_rejected(self):
        with pytest.raises(ConfigError):
            execute_task(
                ExperimentTask(experiment="table2", params={"size": 1})
            )


class TestRunTasks:
    """Task lists through build_plan + run_plan, the engine of run_sweep."""

    TASKS = [
        ExperimentTask(experiment="table2"),
        ExperimentTask(experiment="fig19", quick=True),
        ExperimentTask(experiment="fig5", quick=True),
    ]

    def test_results_keep_task_order(self, cache):
        results = run_plan(build_plan(self.TASKS, cache), cache=cache).results
        assert [result.task.experiment for result in results] == [
            "table2",
            "fig19",
            "fig5",
        ]

    def test_second_run_hits_cache_with_identical_rows(self, cache):
        first = run_plan(build_plan(self.TASKS, cache), cache=cache).results
        second = run_plan(build_plan(self.TASKS, cache), cache=cache).results
        assert all(not result.cached for result in first)
        assert all(result.cached for result in second)
        assert [result.rows for result in first] == [result.rows for result in second]

    def test_durations_are_per_task(self, cache):
        results = run_plan(build_plan(self.TASKS, None)).results
        assert all(result.duration_s > 0 for result in results)
        # Per-task timings, not the shared batch wall time.
        assert len({result.duration_s for result in results}) == len(results)

    def test_no_cache_recomputes(self, cache):
        run_plan(build_plan(self.TASKS, cache), cache=cache)
        again = run_plan(build_plan(self.TASKS, None)).results
        assert all(not result.cached for result in again)

    def test_parallel_matches_serial(self, cache):
        serial = run_plan(build_plan(self.TASKS, None)).results
        parallel = run_plan(build_plan(self.TASKS, None), jobs=2).results
        assert [result.rows for result in serial] == [
            result.rows for result in parallel
        ]

    def test_unknown_name_fails_fast_before_executing(self, cache):
        tasks = [ExperimentTask(experiment="nope"), ExperimentTask(experiment="table2")]
        with pytest.raises(ConfigError):
            run_plan(build_plan(tasks, cache), cache=cache)
        # Nothing was stored: the bad name aborted before any execution.
        assert not any(cache.root.rglob("*.json"))


class TestSweepSpec:
    def test_expand_crosses_gpus_and_design_points(self):
        spec = SweepSpec(
            experiments=("fig19",),
            gpus=("v100", "t4"),
            gpu_overrides=({}, {"accumulation_buffer_kb": 8}),
            quick=True,
        )
        tasks = spec.expand()
        assert len(tasks) == 4
        assert {task.gpu for task in tasks} == {"v100", "t4"}

    def test_param_grid_filtered_per_experiment(self):
        spec = SweepSpec(
            experiments=("fig21", "table4"),
            params={"size": (256, 512)},
            quick=True,
        )
        tasks = spec.expand()
        # fig21 sweeps size; table4 has no such knob and runs once.
        assert len([t for t in tasks if t.experiment == "fig21"]) == 2
        assert len([t for t in tasks if t.experiment == "table4"]) == 1

    def test_unknown_gpu_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            SweepSpec(experiments=("fig21",), gpus=("h100",)).expand()

    def test_unknown_experiment_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            SweepSpec(experiments=("nope",)).expand()

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(experiments=()).expand()

    def test_empty_param_axis_rejected(self):
        # An axis with zero values must not silently fall back to the
        # experiment's default workload.
        with pytest.raises(ConfigError):
            SweepSpec(experiments=("fig21",), params={"size": ()}).expand()


class TestRunSweep:
    def test_every_experiment_on_two_non_v100_presets(self, cache):
        """Acceptance: the whole registry runs under non-V100 presets."""
        from repro.experiments.registry import EXPERIMENTS

        spec = SweepSpec(
            experiments=tuple(EXPERIMENTS),
            gpus=("a100", "t4"),
            quick=True,
        )
        result = run_sweep(spec, cache=cache)
        assert len(result.results) == 2 * len(EXPERIMENTS)
        assert all(result_.rows for result_ in result.results)

    def test_rows_tagged_with_scenario(self, cache):
        spec = SweepSpec(
            experiments=("fig19",),
            gpus=("v100", "jetson-xavier"),
            gpu_overrides=({"accumulation_buffer_kb": 8},),
            quick=True,
        )
        rows = run_sweep(spec, cache=cache).rows()
        assert {row["gpu"] for row in rows} == {"v100", "jetson-xavier"}
        assert all(row["experiment"] == "fig19" for row in rows)
        assert all(row["gpu.accumulation_buffer_kb"] == 8 for row in rows)

    def test_cache_hits_counted(self, cache):
        spec = SweepSpec(experiments=("fig5",), quick=True)
        assert run_sweep(spec, cache=cache).cache_hits == 0
        assert run_sweep(spec, cache=cache).cache_hits == 1


class TestFaultTolerantSweep:
    """run_sweep retries through the plan executor; a cell that fails for
    good raises, or with keep_going lands in ``failures``."""

    def test_failing_cell_raises_on_the_default_call(self, cache, monkeypatch):
        from repro.runtime import executor

        real = executor.execute_task

        def fig19_breaks(task):
            if task.experiment == "fig19":
                raise ValueError("fig19 is broken")
            return real(task)

        monkeypatch.setattr(executor, "execute_task", fig19_breaks)
        spec = SweepSpec(experiments=("fig19", "fig5"), quick=True)
        with pytest.raises(ReproError, match="fig19 @ v100.*fig19 is broken"):
            run_sweep(spec, cache=cache)
        # keep_going finishes the grid and reports the cell instead.
        result = run_sweep(spec, cache=cache, keep_going=True)
        assert [failure.task.experiment for failure in result.failures] == ["fig19"]
        assert {row["experiment"] for row in result.rows()} == {"fig5"}

    def test_policy_routes_through_plan_executor(self, cache):
        from repro.runtime.faults import ExecutorFault, ExecutorFaultPlan
        from repro.runtime.retry import RetryPolicy

        spec = SweepSpec(experiments=("fig19", "fig5"), quick=True)
        faults = ExecutorFaultPlan(
            faults=(ExecutorFault(task_index=0, kind="transient"),)
        )
        result = run_sweep(
            spec,
            cache=cache,
            policy=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            faults=faults,
        )
        assert result.failures == ()
        assert len(result.results) == 2
        # The recovered grid matches a fault-free run bit for bit.
        plain = run_sweep(spec, cache=ResultCache(cache.root / "plain"))
        assert result.rows() == plain.rows()

    def test_quarantined_cell_lands_in_failures(self, cache):
        from repro.runtime.faults import ExecutorFault, ExecutorFaultPlan
        from repro.runtime.retry import RetryPolicy

        spec = SweepSpec(experiments=("fig19", "fig5"), quick=True)
        faults = ExecutorFaultPlan(
            faults=tuple(
                ExecutorFault(task_index=0, kind="transient", attempt=attempt)
                for attempt in (1, 2)
            )
        )
        result = run_sweep(
            spec,
            cache=cache,
            policy=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            faults=faults,
            keep_going=True,
        )
        assert len(result.failures) == 1
        assert result.failures[0].task.experiment == "fig19"
        # The surviving cell still contributes its rows.
        assert any(row["experiment"] == "fig5" for row in result.rows())
