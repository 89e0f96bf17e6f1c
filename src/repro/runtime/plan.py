"""Plan-first sweep execution: expand the grid, inspect it, then run.

A :class:`RunPlan` is the ordered, content-addressed work list of one
sweep invocation: each entry pairs an :class:`ExperimentTask` with its
result-cache key and a plan-time status (``cached`` when the result
cache already holds the rows, ``pending`` otherwise).  The plan is what
``--dry-run`` prints, what the run journal references (by cache key and
plan index), and what :func:`repro.runtime.executor.run_plan` executes.

The plan id is the SHA-256 over the ordered entry keys, so the same CLI
arguments against the same code always name the same plan — which is how
a ``--resume`` invocation finds the journal of the run it is resuming
without any extra bookkeeping.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.experiments.registry import get_experiment
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentTask

#: Plan-time entry statuses.
PENDING = "pending"
CACHED = "cached"


@dataclass(frozen=True)
class PlanEntry:
    """One task of a plan: position, work, cache key, plan-time status."""

    index: int
    task: ExperimentTask
    key: str
    status: str = PENDING


@dataclass(frozen=True)
class RunPlan:
    """Ordered, content-addressed work list of one sweep invocation."""

    entries: "tuple[PlanEntry, ...]"

    @property
    def plan_id(self) -> str:
        """SHA-256 over the ordered entry keys (stable per args + code)."""
        digest = hashlib.sha256()
        for entry in self.entries:
            digest.update(entry.key.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    @property
    def short_id(self) -> str:
        """Filename-friendly prefix of :attr:`plan_id`."""
        return self.plan_id[:16]

    def pending(self) -> "tuple[PlanEntry, ...]":
        return tuple(e for e in self.entries if e.status == PENDING)

    def cached(self) -> "tuple[PlanEntry, ...]":
        return tuple(e for e in self.entries if e.status == CACHED)

    def describe_rows(self) -> "list[dict]":
        """One row per entry, ready for ``format_rows`` (``--dry-run``)."""
        rows = []
        for entry in self.entries:
            task = entry.task
            rows.append(
                {
                    "#": entry.index,
                    "experiment": task.experiment,
                    "gpu": task.gpu or "-",
                    "quick": "yes" if task.quick else "no",
                    "seed": "-" if task.seed is None else task.seed,
                    "params": _params_cell(task),
                    "status": entry.status,
                    "key": entry.key[:16],
                }
            )
        return rows


def _params_cell(task: ExperimentTask) -> str:
    parts = [f"{key}={value!r}" for key, value in sorted(task.params.items())]
    parts += [
        f"gpu.{key}={value!r}" for key, value in sorted(task.gpu_overrides.items())
    ]
    return " ".join(parts) if parts else "-"


def build_plan(
    tasks: Sequence[ExperimentTask],
    cache: "ResultCache | None" = None,
) -> RunPlan:
    """Expand tasks into a validated, cache-annotated plan.

    Validation is eager and total: every experiment name and GPU preset
    is checked *before* anything executes, so a typo aborts the whole
    invocation with a usage error instead of quarantining one cell
    mid-run.  Keys are computed even when ``cache`` is ``None`` — the
    journal still needs stable task identities.
    """
    from repro.hw.config import GPU_PRESETS

    for task in tasks:
        get_experiment(task.experiment)  # raises ConfigError on unknown names
        if task.gpu is not None and task.gpu.lower() not in GPU_PRESETS:
            raise ConfigError(
                f"unknown GPU preset {task.gpu!r}; "
                f"available: {sorted(GPU_PRESETS)}"
            )
    entries = []
    for index, task in enumerate(tasks):
        key = ResultCache.key(task.experiment, task.cache_params())
        status = (
            CACHED if cache is not None and cache.load(key) is not None else PENDING
        )
        entries.append(PlanEntry(index=index, task=task, key=key, status=status))
    return RunPlan(entries=tuple(entries))


def format_plan(plan: RunPlan) -> str:
    """Render a plan as the ``--dry-run`` table."""
    from repro.experiments.report import format_rows

    pending, cached = len(plan.pending()), len(plan.cached())
    title = (
        f"=== plan {plan.short_id} ({len(plan.entries)} task(s): "
        f"{pending} pending, {cached} cached) ==="
    )
    return format_rows(plan.describe_rows(), title=title)
