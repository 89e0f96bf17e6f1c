"""Tests for plan-first execution: RunPlan building and the dry-run view."""

import pytest

from repro.errors import ConfigError
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentTask, run_plan
from repro.runtime.plan import CACHED, PENDING, build_plan, format_plan


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path)


TASKS = [
    ExperimentTask(experiment="table2"),
    ExperimentTask(experiment="fig5", quick=True),
    ExperimentTask(experiment="fig19", quick=True, gpu="a100"),
]


class TestBuildPlan:
    def test_entries_keep_task_order_and_indices(self, cache):
        plan = build_plan(TASKS, cache)
        assert [entry.task.experiment for entry in plan.entries] == [
            "table2",
            "fig5",
            "fig19",
        ]
        assert [entry.index for entry in plan.entries] == [0, 1, 2]

    def test_keys_match_result_cache_keys(self, cache):
        plan = build_plan(TASKS, cache)
        for entry in plan.entries:
            assert entry.key == ResultCache.key(
                entry.task.experiment, entry.task.cache_params()
            )

    def test_fresh_plan_is_all_pending(self, cache):
        plan = build_plan(TASKS, cache)
        assert all(entry.status == PENDING for entry in plan.entries)
        assert len(plan.pending()) == 3
        assert plan.cached() == ()

    def test_cached_results_are_detected(self, cache):
        run_plan(build_plan([TASKS[1]], cache), cache=cache)
        plan = build_plan(TASKS, cache)
        assert [entry.status for entry in plan.entries] == [
            PENDING,
            CACHED,
            PENDING,
        ]

    def test_no_cache_means_all_pending(self, cache):
        run_plan(build_plan([TASKS[1]], cache), cache=cache)
        plan = build_plan(TASKS, cache=None)
        assert all(entry.status == PENDING for entry in plan.entries)

    def test_unknown_experiment_rejected_eagerly(self, cache):
        with pytest.raises(ConfigError):
            build_plan([ExperimentTask(experiment="nope")], cache)

    def test_unknown_gpu_rejected_eagerly(self, cache):
        with pytest.raises(ConfigError):
            build_plan([ExperimentTask(experiment="table2", gpu="h100")], cache)


class TestPlanIdentity:
    def test_plan_id_stable_for_same_tasks(self, cache):
        assert build_plan(TASKS, cache).plan_id == build_plan(TASKS, cache).plan_id

    def test_plan_id_sensitive_to_order(self, cache):
        assert (
            build_plan(TASKS, cache).plan_id
            != build_plan(list(reversed(TASKS)), cache).plan_id
        )

    def test_plan_id_sensitive_to_params(self, cache):
        other = [ExperimentTask(experiment="table2", seed=7)] + TASKS[1:]
        assert build_plan(TASKS, cache).plan_id != build_plan(other, cache).plan_id

    def test_plan_id_insensitive_to_cache_state(self, cache):
        before = build_plan(TASKS, cache).plan_id
        run_plan(build_plan([TASKS[1]], cache), cache=cache)
        assert build_plan(TASKS, cache).plan_id == before

    def test_short_id_prefixes_plan_id(self, cache):
        plan = build_plan(TASKS, cache)
        assert plan.plan_id.startswith(plan.short_id)


class TestDryRunView:
    def test_format_lists_every_task_with_status(self, cache):
        run_plan(build_plan([TASKS[0]], cache), cache=cache)
        text = format_plan(build_plan(TASKS, cache))
        assert "table2" in text and "fig5" in text and "fig19" in text
        assert "cached" in text and "pending" in text
        assert "2 pending, 1 cached" in text

    def test_format_shows_gpu_and_plan_id(self, cache):
        plan = build_plan(TASKS, cache)
        text = format_plan(plan)
        assert "a100" in text
        assert plan.short_id in text
