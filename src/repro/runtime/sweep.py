"""Sweep grids: GPU presets × design points × parameter grids.

A :class:`SweepSpec` declares the scenario grid once; :meth:`expand`
cross-products it into concrete :class:`ExperimentTask` s and
:func:`run_sweep` executes them (parallel and cached like any other task
list).  Per-experiment grid parameters are filtered against each
experiment's ``sweepable`` set, so one spec can drive heterogeneous
experiments: a ``size`` axis applies to ``fig21`` and ``fig6`` but is
silently dropped for ``table4``, which has no such knob.

Example — every figure on three devices and two accumulation-buffer
design points::

    spec = SweepSpec(
        experiments=("fig19", "fig21"),
        gpus=("v100", "a100", "t4"),
        gpu_overrides=({}, {"accumulation_buffer_kb": 8}),
        quick=True,
    )
    result = run_sweep(spec, jobs=4, cache=ResultCache())
    table = result.rows()          # tagged with gpu / design point
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Tuple

from repro.errors import ConfigError, ReproError
from repro.experiments.registry import get_experiment
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentTask, TaskResult, run_plan
from repro.runtime.plan import build_plan


@dataclass(frozen=True)
class SweepSpec:
    """Declarative grid of experiment scenarios.

    Attributes:
        experiments: registered experiment names to drive.
        gpus: GPU preset names; each experiment runs once per preset.
        gpu_overrides: design points — each entry is a dict of
            :class:`repro.hw.config.GpuConfig` field overrides applied
            on top of every preset (``{}`` = the stock preset).
        params: per-parameter value grids (e.g. ``{"scale": (0.5, 1.0)}``);
            cross-multiplied, filtered per experiment to its sweepable set.
        seed: RNG seed forwarded to seed-accepting experiments.
        quick: run the shrunken quick-mode workloads.
    """

    experiments: Tuple[str, ...]
    gpus: Tuple[str, ...] = ("v100",)
    gpu_overrides: Tuple[Mapping[str, Any], ...] = ({},)
    params: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seed: int = 2021
    quick: bool = False

    def expand(self) -> "list[ExperimentTask]":
        """Cross-product the grid into concrete tasks (validated eagerly)."""
        if not self.experiments:
            raise ConfigError("SweepSpec needs at least one experiment")
        if not self.gpus or not self.gpu_overrides:
            raise ConfigError("SweepSpec needs at least one GPU / design point")
        from repro.hw.config import GPU_PRESETS

        for gpu in self.gpus:
            if gpu.lower() not in GPU_PRESETS:
                raise ConfigError(
                    f"unknown GPU preset {gpu!r}; available: {sorted(GPU_PRESETS)}"
                )
        tasks: "list[ExperimentTask]" = []
        for name in self.experiments:
            spec = get_experiment(name)
            empty_axes = sorted(key for key, values in self.params.items() if not values)
            if empty_axes:
                raise ConfigError(
                    f"sweep parameter axes with no values: {empty_axes}"
                )
            applicable = {
                key: values
                for key, values in self.params.items()
                if key in spec.sweepable or key in spec.defaults
            }
            axes = sorted(applicable)
            combos = list(itertools.product(*(applicable[axis] for axis in axes)))
            for gpu in self.gpus:
                for overrides in self.gpu_overrides:
                    for combo in combos:
                        tasks.append(
                            ExperimentTask(
                                experiment=name,
                                quick=self.quick,
                                gpu=gpu.lower(),
                                gpu_overrides=dict(overrides),
                                seed=self.seed,
                                params=dict(zip(axes, combo)),
                            )
                        )
        return tasks


@dataclass(frozen=True)
class SweepResult:
    """Ordered results of one sweep run."""

    results: Tuple[TaskResult, ...]

    def rows(self) -> "list[dict]":
        """Flatten to one tagged table: scenario columns + driver columns."""
        flattened: "list[dict]" = []
        for result in self.results:
            task = result.task
            for row in result.rows:
                tagged = {"experiment": task.experiment, "gpu": task.gpu}
                tagged.update(
                    {f"gpu.{key}": value for key, value in task.gpu_overrides.items()}
                )
                tagged.update(task.params)
                tagged.update(row)
                flattened.append(tagged)
        return flattened

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def failures(self) -> "Tuple[TaskResult, ...]":
        """Quarantined cells (empty unless run with ``keep_going=True``:
        without it :func:`run_sweep` raises on the first quarantine)."""
        return tuple(result for result in self.results if not result.ok)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
    *,
    policy=None,
    journal=None,
    faults=None,
    keep_going: bool = False,
) -> SweepResult:
    """Expand and execute a sweep grid through :func:`run_plan`.

    Results keep grid order.  ``policy``
    (:class:`repro.runtime.retry.RetryPolicy`), ``journal``
    (:class:`repro.runtime.journal.RunJournal`) and ``faults``
    (:class:`repro.runtime.faults.ExecutorFaultPlan`) are forwarded:
    bounded retries, parent-enforced timeouts and journaling.

    Raises:
        ReproError: a cell failed for good and ``keep_going`` is off; the
            message names every quarantined cell.  With ``keep_going``
            the grid finishes and those cells land in
            :attr:`SweepResult.failures` instead.
    """
    execution = run_plan(
        build_plan(spec.expand(), cache),
        jobs=jobs,
        cache=cache,
        journal=journal,
        policy=policy,
        faults=faults,
        keep_going=keep_going,
    )
    if execution.aborted:
        cells = "; ".join(
            f"{failure.task.experiment} @ {failure.task.gpu} "
            f"params={dict(failure.task.params)!r}: {failure.error}"
            for failure in execution.failures
        )
        raise ReproError(f"sweep stopped at a failed cell: {cells}")
    return SweepResult(results=tuple(execution.results))
