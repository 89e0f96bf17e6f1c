"""Benchmarks for the sweep runtime: fresh vs cached, single vs multi-GPU.

The cached benchmark is the headline number: restoring a full quick
sweep from the content-addressed cache must be far faster than
recomputing it (the CLI acceptance bar is >=5x including interpreter
startup; the in-process ratio is far higher).
"""

from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentTask, run_plan
from repro.runtime.plan import build_plan
from repro.runtime.sweep import SweepSpec, run_sweep

TASKS = [
    ExperimentTask(experiment="table3", quick=True),
    ExperimentTask(experiment="fig5", quick=True),
    ExperimentTask(experiment="fig19", quick=True),
    ExperimentTask(experiment="fig21", quick=True),
]


def run_cached(cache):
    return run_plan(build_plan(TASKS, cache), cache=cache).results


def test_fresh_quick_tasks(one_shot, tmp_path):
    results = one_shot(run_cached, ResultCache(tmp_path))
    assert len(results) == len(TASKS)
    assert not any(result.cached for result in results)


def test_cached_quick_tasks(benchmark, tmp_path):
    cache = ResultCache(tmp_path)
    warm = run_cached(cache)
    results = benchmark(run_cached, cache)
    assert all(result.cached for result in results)
    assert [result.rows for result in results] == [result.rows for result in warm]


def test_multi_gpu_quick_sweep(one_shot, tmp_path):
    spec = SweepSpec(
        experiments=("fig19", "fig21"),
        gpus=("v100", "a100", "t4", "jetson-xavier"),
        quick=True,
    )
    result = one_shot(run_sweep, spec, cache=ResultCache(tmp_path))
    assert len(result.results) == 8
    rows = result.rows()
    assert {row["gpu"] for row in rows} == {"v100", "a100", "t4", "jetson-xavier"}
