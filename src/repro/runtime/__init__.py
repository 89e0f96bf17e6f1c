"""Parallel, cached, multi-scenario sweep runtime for the experiments.

The seed repository ran every table and figure serially, from scratch,
against the single hard-coded V100 configuration.  This package turns
the experiment layer into a crash-safe sweep engine:

* :mod:`repro.runtime.cache` — a content-addressed JSON result cache
  keyed on a stable hash of (experiment, parameters, code version), so
  re-runs are near-instant and byte-identical.  Writes are atomic
  (temp file + rename, fsync'd), so a killed process can never leave a
  truncated entry.
* :mod:`repro.runtime.executor` — :func:`run_plan`, the one execution
  engine: inline or one isolated worker process per attempt, with
  deterministic result order, bounded retries, parent-enforced
  timeouts, quarantine and fault injection.
* :mod:`repro.runtime.plan` — expand a task list into an ordered,
  content-addressed :class:`RunPlan` (the ``--dry-run`` view, and the
  identity a resumed run uses to find its journal).
* :mod:`repro.runtime.journal` — append-only fsync'd JSONL run journal;
  replayable after any crash, repairable after a torn write.
* :mod:`repro.runtime.retry` — :class:`RetryPolicy` (bounded retries,
  per-task timeouts, deterministic exponential backoff) shared by the
  executor and the serving layer's session warm-up.
* :mod:`repro.runtime.faults` — deterministic executor fault plans
  (worker kills, hangs, transient exceptions).
* :mod:`repro.runtime.sweep` — :class:`SweepSpec` grids that
  cross-product GPU presets × design-point overrides × per-experiment
  parameter grids and drive any registered experiment.

``python -m repro.experiments.runner`` is the CLI front end
(``--dry-run``, ``--resume``, ``--max-retries``, ``--task-timeout``,
``--keep-going``).
"""

from repro.runtime.cache import ResultCache, code_version, normalize_rows
from repro.runtime.executor import (
    ExperimentTask,
    PlanExecution,
    TaskResult,
    execute_task,
    run_plan,
)
from repro.runtime.faults import ExecutorFault, ExecutorFaultPlan
from repro.runtime.journal import RunJournal, read_events, replay, signature
from repro.runtime.plan import PlanEntry, RunPlan, build_plan, format_plan
from repro.runtime.retry import RetryPolicy, TransientError, call_with_retry
from repro.runtime.sweep import SweepSpec, SweepResult, run_sweep

__all__ = [
    "ResultCache",
    "code_version",
    "normalize_rows",
    "ExperimentTask",
    "TaskResult",
    "PlanExecution",
    "execute_task",
    "run_plan",
    "ExecutorFault",
    "ExecutorFaultPlan",
    "RunJournal",
    "read_events",
    "replay",
    "signature",
    "PlanEntry",
    "RunPlan",
    "build_plan",
    "format_plan",
    "RetryPolicy",
    "TransientError",
    "call_with_retry",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
]
