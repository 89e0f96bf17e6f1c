"""Deterministic fault plans for the sweep executor.

Instead of racing real signals against live workers, a
:class:`ExecutorFaultPlan` states exactly which *(task, attempt)* pairs
misbehave and how, and the worker entry point consults it before and
after running the task.  Every recovery path of the executor — worker
killed, worker hung past its timeout, transient exception — can
therefore be exercised on demand and replays identically on every run:
same plan, same journal event sequence.

Fault kinds (all fire in the worker process, never the parent):

``kill_before``
    SIGKILL the worker before the task runs — the attempt produces no
    result and no cache entry.
``kill_after``
    Run the task to completion, then SIGKILL before the result is sent
    back — models "work finished but lost", the retry must recompute.
``hang``
    Sleep ``hang_s`` before running — only meaningful under a policy
    with a ``task_timeout_s``; the parent kills the worker at the
    deadline.
``transient``
    Raise :class:`repro.runtime.retry.TransientError` instead of
    running — the classic retryable failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigError

#: Every fault kind the worker entry point understands.
FAULT_KINDS = ("kill_before", "kill_after", "hang", "transient")


@dataclass(frozen=True)
class ExecutorFault:
    """One injected misbehaviour of one task attempt.

    Attributes:
        task_index: plan index of the targeted task.
        kind: one of :data:`FAULT_KINDS`.
        attempt: the 1-based attempt the fault fires on; later attempts
            of the same task run clean (which is what lets the bounded
            retry recover).
        hang_s: sleep duration of a ``hang`` fault (generously above any
            sane ``task_timeout_s`` so the parent's deadline, not the
            sleep, ends the attempt).
    """

    task_index: int
    kind: str
    attempt: int = 1
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.task_index < 0:
            raise ConfigError(f"task_index must be >= 0, got {self.task_index}")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise ConfigError(f"attempt is 1-based, got {self.attempt}")
        if self.hang_s <= 0:
            raise ConfigError(f"hang_s must be > 0, got {self.hang_s}")


@dataclass(frozen=True)
class ExecutorFaultPlan:
    """Every fault injected into one plan execution."""

    faults: "tuple[ExecutorFault, ...]" = ()

    def __post_init__(self) -> None:
        seen: set = set()
        for fault in self.faults:
            slot = (fault.task_index, fault.attempt)
            if slot in seen:
                raise ConfigError(
                    f"duplicate fault for task {fault.task_index} "
                    f"attempt {fault.attempt}"
                )
            seen.add(slot)

    def fault_for(self, task_index: int, attempt: int) -> "ExecutorFault | None":
        """The fault scheduled for this (task, attempt), if any."""
        for fault in self.faults:
            if fault.task_index == task_index and fault.attempt == attempt:
                return fault
        return None

    @property
    def has_hang(self) -> bool:
        """True when any fault needs a parent-enforced timeout to recover."""
        return any(fault.kind == "hang" for fault in self.faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        tasks: int,
        rate: float = 0.5,
        kinds: "tuple[str, ...]" = ("kill_before", "kill_after", "transient"),
    ) -> "ExecutorFaultPlan":
        """Draw a reproducible first-attempt fault plan.

        Each task independently faults on its first attempt with
        probability ``rate``; the kind is drawn uniformly from ``kinds``.
        The draw uses a private :class:`random.Random` stream, so the
        same ``(seed, tasks, rate, kinds)`` always yields the same plan —
        the chaos-test entry point of the fault suite.  ``hang`` is
        excluded by default because it only recovers under a task
        timeout.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"rate must be in [0, 1], got {rate}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigError(
                    f"unknown fault kind {kind!r}; known: {FAULT_KINDS}"
                )
        rng = random.Random(seed)
        faults = []
        for index in range(tasks):
            if rng.random() < rate:
                faults.append(
                    ExecutorFault(task_index=index, kind=rng.choice(kinds))
                )
        return cls(faults=tuple(faults))
