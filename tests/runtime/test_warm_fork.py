"""Warm forks: isolated workers inherit the drivers the parent imported.

Under the ``fork`` start method the parent imports each pending
experiment's driver once, before it caps BLAS and starts the first
worker, so no attempt pays for NumPy, SciPy or the zoo again, and
SciPy's own OpenBLAS is capped with NumPy's.  A cached plan imports
nothing, and a driver that cannot be imported still quarantines only
its own cells, from inside its worker.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, get_experiment
from repro.runtime import executor
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentTask, run_plan
from repro.runtime.journal import RunJournal, read_events
from repro.runtime.plan import build_plan

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="warm workers need the fork start method",
)


def test_workers_find_the_driver_already_imported(monkeypatch):
    import repro.experiments

    module = get_experiment("fig5").module
    monkeypatch.delitem(sys.modules, module, raising=False)
    monkeypatch.delattr(repro.experiments, module.rsplit(".", 1)[1], raising=False)
    real = executor._execute_timed

    def spy(task):
        # Runs in the forked worker, which inherits this patched global.
        inherited = module in sys.modules
        _, duration = real(task)
        return [{"inherited": inherited}], duration

    monkeypatch.setattr(executor, "_execute_timed", spy)
    tasks = [ExperimentTask("fig5", quick=True, gpu=gpu) for gpu in ("v100", "a100")]
    execution = run_plan(build_plan(tasks), jobs=2)
    assert [result.rows for result in execution.results] == [
        [{"inherited": True}],
        [{"inherited": True}],
    ]


def test_parent_resolves_only_pending_drivers_once(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cached = [ExperimentTask("fig19", quick=True)]
    run_plan(build_plan(cached, cache), cache=cache)
    resolved = []
    real = ExperimentSpec.resolve

    def spy(spec):
        resolved.append(spec.name)  # a worker appends to its own copy
        return real(spec)

    monkeypatch.setattr(ExperimentSpec, "resolve", spy)
    execution = run_plan(build_plan(cached, cache), cache=cache, jobs=2)
    assert execution.cache_hits == 1
    assert resolved == []

    tasks = cached + [
        ExperimentTask("fig5", quick=True, gpu=gpu) for gpu in ("v100", "a100")
    ]
    execution = run_plan(build_plan(tasks, cache), cache=cache, jobs=2)
    assert execution.cache_hits == 1 and execution.completed == 2
    assert resolved == ["fig5"]


def test_unimportable_driver_quarantines_only_its_cells(tmp_path, monkeypatch):
    (tmp_path / "warm_fork_raising_driver.py").write_text(
        "def run_broken():\n    raise ValueError('broken at run time')\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))

    def run_with_driver(module):
        spec = ExperimentSpec(
            name="broken",
            module=module,
            func="run_broken",
            description="a driver that cannot run",
            accepts=frozenset(),
        )
        monkeypatch.setitem(EXPERIMENTS, "broken", spec)
        tasks = [ExperimentTask("broken"), ExperimentTask("fig5", quick=True)]
        path = tmp_path / f"{module}.jsonl"
        with RunJournal(path) as journal:
            execution = run_plan(
                build_plan(tasks), jobs=2, journal=journal, keep_going=True
            )
        kinds = {
            index: [
                event["event"]
                for event in read_events(path)
                if event.get("index") == index
            ]
            for index in range(len(tasks))
        }
        return execution, kinds

    missing, missing_kinds = run_with_driver("repro.experiments.no_such_driver")
    broken, fig5 = missing.results
    assert broken.error.startswith("ModuleNotFoundError")
    assert "no_such_driver" in broken.error
    assert broken.attempts == 1
    assert fig5.ok and fig5.rows
    assert missing_kinds[0] == ["task_started", "task_failed", "task_quarantined"]

    raising, raising_kinds = run_with_driver("warm_fork_raising_driver")
    assert raising.results[0].error.startswith("ValueError")
    assert missing_kinds == raising_kinds


#: Runs one isolated task in a fresh interpreter whose driver maps
#: SciPy's OpenBLAS on import, and prints what the worker saw.
BLAS_PROBE = """
import json
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec
from repro.runtime.executor import ExperimentTask, run_plan
from repro.runtime.plan import build_plan

EXPERIMENTS["blas_probe"] = ExperimentSpec(
    name="blas_probe",
    module="warm_fork_blas_probe",
    func="run_blas_probe",
    description="OpenBLAS thread counts inside a worker",
    accepts=frozenset(),
)
execution = run_plan(build_plan([ExperimentTask("blas_probe")]), jobs=2)
print(json.dumps([result.rows for result in execution.results]))
"""

BLAS_PROBE_DRIVER = """
import repro.kernels.gemm_dual_sparse  # imports SciPy, as real drivers do
from repro.utils.blas import blas_thread_counts


def run_blas_probe():
    return [
        {"library": name, "threads": threads}
        for name, threads in sorted(blas_thread_counts().items())
    ]
"""


def test_every_openblas_in_a_worker_is_capped(tmp_path):
    (tmp_path / "warm_fork_blas_probe.py").write_text(BLAS_PROBE_DRIVER)
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(tmp_path), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (rows,) = json.loads(proc.stdout.splitlines()[-1])
    assert rows, "no OpenBLAS mapped inside the worker"
    jobs = 2
    target = max(1, len(os.sched_getaffinity(0)) // jobs)
    assert {row["library"]: row["threads"] for row in rows} == {
        row["library"]: target for row in rows
    }
