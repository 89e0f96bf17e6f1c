"""Serial and multiprocessing execution of experiment tasks.

An :class:`ExperimentTask` is the unit of work of the sweep runtime: one
registered experiment plus everything that parameterizes it (quick mode,
GPU preset name + design-point overrides, seed, extra grid parameters).
Tasks carry only JSON-serializable values, so the same dictionary both
feeds the driver and forms the cache key — there is no way for a cached
run to diverge from a fresh one because both are derived from the task.

Two execution layers share this module:

* :func:`run_tasks` — the original eager engine: resolve cache hits in
  the parent, dispatch misses serially or through a ``multiprocessing``
  pool.  Fast, but a crashed worker takes the run down with it.
* :func:`run_plan` — the fault-tolerant engine behind the runner CLI:
  executes a :class:`repro.runtime.plan.RunPlan` under a
  :class:`repro.runtime.retry.RetryPolicy` (bounded retries with
  deterministic backoff, per-task wall-clock timeouts enforced by the
  parent), journals every transition (:mod:`repro.runtime.journal`),
  quarantines permanently failing cells instead of aborting the grid,
  and accepts an :class:`repro.runtime.faults.ExecutorFaultPlan` so
  every recovery path is testable on demand.

Results always come back in task order, so serial, parallel, cached and
resumed invocations print identical reports.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TYPE_CHECKING

from repro.errors import ConfigError
from repro.experiments.registry import get_experiment
from repro.runtime.cache import ResultCache, normalize_rows
from repro.runtime.retry import RetryPolicy, TransientError, is_transient
from repro.utils.blas import cap_blas_threads, restore_blas_threads

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan imports us)
    from repro.runtime.faults import ExecutorFault, ExecutorFaultPlan
    from repro.runtime.journal import RunJournal
    from repro.runtime.plan import PlanEntry, RunPlan


@dataclass(frozen=True)
class ExperimentTask:
    """One fully-specified experiment invocation.

    Attributes:
        experiment: registered experiment name (see the registry).
        quick: shrink the workload for a fast smoke run.
        gpu: GPU preset name (``None`` = the experiment's built-in
            default, i.e. V100).
        gpu_overrides: design-point field overrides applied to the
            preset (e.g. ``{"accumulation_buffer_kb": 8}``).
        seed: RNG seed forwarded to drivers that accept one.
        params: extra sweep-grid parameters for the driver.
    """

    experiment: str
    quick: bool = False
    gpu: "str | None" = None
    gpu_overrides: Mapping[str, Any] = field(default_factory=dict)
    seed: "int | None" = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def cache_params(self) -> dict[str, Any]:
        """The JSON document hashed into this task's cache key."""
        return {
            "quick": self.quick,
            "gpu": self.gpu,
            "gpu_overrides": dict(self.gpu_overrides),
            "seed": self.seed,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class TaskResult:
    """Terminal outcome of one task: rows, or a quarantined failure.

    ``error`` is ``None`` for a success; a quarantined task carries the
    final failure's repr and empty rows.  ``attempts`` counts dispatches
    (0 for a pure cache hit).
    """

    task: ExperimentTask
    rows: "list[dict]"
    cached: bool = False
    duration_s: float = 0.0
    error: "str | None" = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_task(task: ExperimentTask) -> "list[dict]":
    """Run one task in this process and return its normalized rows."""
    spec = get_experiment(task.experiment)
    kwargs = spec.build_kwargs(
        quick=task.quick, seed=task.seed, params=task.params
    )
    if "config" in spec.accepts and (task.gpu is not None or task.gpu_overrides):
        from repro.hw.config import get_gpu_config

        kwargs["config"] = get_gpu_config(
            task.gpu or "v100", dict(task.gpu_overrides)
        )
    return normalize_rows(spec.resolve()(**kwargs))


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int = 1,
    cache: "ResultCache | None" = None,
) -> "list[TaskResult]":
    """Execute tasks (cache-first), returning results in task order.

    Args:
        tasks: the work list; duplicates are executed once per entry.
        jobs: worker processes for cache misses (1 = run in-process).
        cache: result cache; ``None`` disables caching entirely.
    """
    for task in tasks:
        get_experiment(task.experiment)  # fail fast on unknown names

    keys = [
        cache.key(task.experiment, task.cache_params()) if cache else None
        for task in tasks
    ]
    results: "list[TaskResult | None]" = [None] * len(tasks)
    misses: list[int] = []
    for index, (task, key) in enumerate(zip(tasks, keys)):
        rows = cache.load(key) if cache else None
        if rows is not None:
            results[index] = TaskResult(task=task, rows=rows, cached=True)
        else:
            misses.append(index)

    if misses:
        miss_tasks = [tasks[index] for index in misses]
        if jobs > 1 and len(miss_tasks) > 1:
            with make_pool(min(jobs, len(miss_tasks))) as pool:
                timed = pool.map(_execute_timed, miss_tasks)
        else:
            timed = [_execute_timed(task) for task in miss_tasks]
        for index, (rows, duration) in zip(misses, timed):
            results[index] = TaskResult(
                task=tasks[index],
                rows=rows,
                cached=False,
                duration_s=duration,
                attempts=1,
            )
            if cache:
                cache.store(
                    keys[index],
                    tasks[index].experiment,
                    tasks[index].cache_params(),
                    rows,
                )
    return [result for result in results if result is not None]


def _execute_timed(task: ExperimentTask) -> "tuple[list[dict], float]":
    """Worker entry: rows plus this task's own wall-clock duration."""
    started = time.perf_counter()
    rows = execute_task(task)
    return rows, time.perf_counter() - started


def _preferred_start_method() -> str:
    """``fork`` where available (workers inherit imports), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def make_pool(processes: int) -> "multiprocessing.pool.Pool":
    """A worker pool on the preferred start method.

    The single pool-construction point of the runtime: ``run_tasks``
    uses it for experiment fan-out and the serving daemon's session pool
    reuses it to shard model compilation across workers
    (:meth:`repro.serving.pool.SessionPool.warm`).
    """
    context = multiprocessing.get_context(_preferred_start_method())
    return context.Pool(processes=processes)


# ---------------------------------------------------------------------- #
# Fault-tolerant plan execution
# ---------------------------------------------------------------------- #

@dataclass
class PlanExecution:
    """Outcome of :func:`run_plan`: terminal results, in plan order.

    Attributes:
        results: one :class:`TaskResult` per *reached* entry.  With
            ``keep_going=False`` an early quarantine stops dispatch, so
            unreached entries are simply absent.
        aborted: the run stopped before dispatching every entry.
    """

    results: "list[TaskResult]"
    aborted: bool = False

    @property
    def failures(self) -> "list[TaskResult]":
        return [result for result in self.results if not result.ok]

    @property
    def completed(self) -> int:
        return sum(1 for result in self.results if result.ok and not result.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.cached)


def _plan_worker(conn, task: ExperimentTask, fault: "ExecutorFault | None") -> None:
    """Isolated worker entry: run one attempt, honouring its fault.

    The protocol is one message on ``conn``: ``("ok", rows, duration)``
    or ``("error", repr, transient, traceback)``.  A killed worker sends
    nothing — the parent reads EOF and classifies the attempt from the
    exit code.
    """
    if fault is not None and fault.kind == "kill_before":
        os.kill(os.getpid(), signal.SIGKILL)
    if fault is not None and fault.kind == "hang":
        time.sleep(fault.hang_s)
    try:
        if fault is not None and fault.kind == "transient":
            raise TransientError(
                f"injected transient fault (task {fault.task_index}, "
                f"attempt {fault.attempt})"
            )
        rows, duration = _execute_timed(task)
    except BaseException as error:  # ship the failure, never die silently
        try:
            conn.send(
                ("error", repr(error), is_transient(error), traceback.format_exc())
            )
        finally:
            conn.close()
        return
    if fault is not None and fault.kind == "kill_after":
        # The work is done but the result is lost with the worker — the
        # retry has to recompute it.
        os.kill(os.getpid(), signal.SIGKILL)
    try:
        conn.send(("ok", rows, duration))
    finally:
        conn.close()


@dataclass
class _Flight:
    """One in-flight isolated attempt."""

    entry: "PlanEntry"
    attempt: int
    process: Any
    started: float
    deadline: "float | None"


class _PlanRun:
    """Shared bookkeeping of one :func:`run_plan` invocation."""

    def __init__(
        self,
        plan: "RunPlan",
        cache: "ResultCache | None",
        journal: "RunJournal | None",
        policy: RetryPolicy,
        faults: "ExecutorFaultPlan | None",
        keep_going: bool,
        progress: "Callable[[int, int, TaskResult], None] | None",
    ) -> None:
        self.plan = plan
        self.cache = cache
        self.journal = journal
        self.policy = policy
        self.faults = faults
        self.keep_going = keep_going
        self.progress = progress
        self.results: "list[TaskResult | None]" = [None] * len(plan.entries)
        self.done = 0
        self.aborted = False

    def emit(self, event: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(event, **fields)

    def ident(self, entry: "PlanEntry") -> dict:
        return {
            "index": entry.index,
            "key": entry.key,
            "experiment": entry.task.experiment,
        }

    def finish(self, entry: "PlanEntry", result: TaskResult) -> None:
        self.results[entry.index] = result
        self.done += 1
        if self.progress is not None:
            self.progress(self.done, len(self.plan.entries), result)

    def complete(
        self, entry: "PlanEntry", rows: "list[dict]", duration: float, attempt: int
    ) -> None:
        """Success: cache first, then journal — a journal-completed task
        is guaranteed to be servable from the cache on resume."""
        if self.cache is not None:
            self.cache.store(
                entry.key, entry.task.experiment, entry.task.cache_params(), rows
            )
        self.emit(
            "task_completed",
            **self.ident(entry),
            attempt=attempt,
            duration_s=round(duration, 6),
        )
        self.finish(
            entry,
            TaskResult(
                task=entry.task, rows=rows, duration_s=duration, attempts=attempt
            ),
        )

    def fail(
        self, entry: "PlanEntry", attempt: int, kind: str, error: str, transient: bool
    ) -> "float | None":
        """Record one failed attempt.

        Returns the backoff delay when the entry should be retried, or
        ``None`` when it was quarantined.
        """
        self.emit(
            "task_failed",
            **self.ident(entry),
            attempt=attempt,
            kind=kind,
            transient=transient,
            error=error,
        )
        if transient and attempt < self.policy.total_attempts:
            delay = self.policy.backoff_s(attempt)
            self.emit(
                "task_retried",
                **self.ident(entry),
                next_attempt=attempt + 1,
                backoff_s=delay,
            )
            return delay
        self.emit(
            "task_quarantined", **self.ident(entry), attempts=attempt, error=error
        )
        self.finish(
            entry,
            TaskResult(task=entry.task, rows=[], error=error, attempts=attempt),
        )
        if not self.keep_going:
            self.aborted = True
        return None


def run_plan(
    plan: "RunPlan",
    *,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
    journal: "RunJournal | None" = None,
    policy: "RetryPolicy | None" = None,
    faults: "ExecutorFaultPlan | None" = None,
    keep_going: bool = False,
    progress: "Callable[[int, int, TaskResult], None] | None" = None,
    resumed: bool = False,
) -> PlanExecution:
    """Execute a plan under the retry policy, journaling every transition.

    Cached entries are served first (in plan order, ``task_skipped``
    events); pending entries then execute either in-process (serial, no
    timeout/faults requested — the fast path) or in one isolated worker
    process per attempt, which is what makes per-task wall-clock
    timeouts and kill-style fault injection enforceable by the parent.

    Args:
        plan: validated work list from :func:`repro.runtime.plan.build_plan`.
        jobs: concurrent isolated workers (1 = sequential).
        cache: result cache; successes are stored before being journaled.
        journal: run journal (``None`` = no journaling).
        policy: retry/timeout/backoff policy (default
            :class:`RetryPolicy`'s defaults).
        faults: injected fault plan — forces isolated execution.
        keep_going: quarantine failing cells and continue instead of
            draining and aborting after the first quarantine.
        progress: observer called as ``(done, total, result)`` after each
            terminal entry, in completion order.
        resumed: annotate the ``run_started`` event (cosmetic only; the
            actual skipping comes from the result cache).

    Raises:
        ConfigError: a hang fault was injected without a task timeout —
            the run would block forever.
    """
    policy = policy or RetryPolicy()
    if faults is not None and faults.has_hang and policy.task_timeout_s is None:
        raise ConfigError(
            "a hang fault needs policy.task_timeout_s, or the run never ends"
        )
    run = _PlanRun(plan, cache, journal, policy, faults, keep_going, progress)
    started = time.perf_counter()
    run.emit(
        "run_started",
        plan=plan.plan_id,
        total=len(plan.entries),
        pending=len(plan.pending()),
        cached=len(plan.cached()),
        jobs=jobs,
        max_retries=policy.max_retries,
        task_timeout_s=policy.task_timeout_s,
        resumed=resumed,
    )

    from repro.runtime.plan import CACHED

    pending: "list[PlanEntry]" = []
    for entry in plan.entries:
        rows = (
            cache.load(entry.key)
            if cache is not None and entry.status == CACHED
            else None
        )
        if rows is not None:
            run.emit("task_skipped", **run.ident(entry), reason="cache-hit")
            run.finish(entry, TaskResult(task=entry.task, rows=rows, cached=True))
        else:
            pending.append(entry)

    if pending:
        isolate = jobs > 1 or faults is not None or policy.task_timeout_s is not None
        if isolate:
            _execute_isolated(run, pending, jobs)
        else:
            _execute_inline(run, pending)

    results = [result for result in run.results if result is not None]
    run.emit(
        "run_finished",
        completed=sum(1 for r in results if r.ok and not r.cached),
        skipped=sum(1 for r in results if r.cached),
        quarantined=sum(1 for r in results if not r.ok),
        aborted=run.aborted,
        wall_s=round(time.perf_counter() - started, 6),
    )
    return PlanExecution(results=results, aborted=run.aborted)


def _execute_inline(run: _PlanRun, pending: "Sequence[PlanEntry]") -> None:
    """Sequential in-process execution (no timeouts, no kill faults).

    Retry/quarantine semantics are identical to the isolated engine for
    the failure modes that can occur in-process (exceptions); the
    journal event vocabulary is shared.
    """
    for entry in pending:
        if run.aborted:
            break
        attempt = 1
        while True:
            run.emit("task_started", **run.ident(entry), attempt=attempt)
            try:
                rows, duration = _execute_timed(entry.task)
            except Exception as error:
                delay = run.fail(
                    entry, attempt, "exception", repr(error), is_transient(error)
                )
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
            else:
                run.complete(entry, rows, duration, attempt)
                break


#: Scheduler poll granularity; bounds how late a deadline kill can fire.
_POLL_S = 0.05


def _execute_isolated(
    run: _PlanRun, pending: "Sequence[PlanEntry]", jobs: int
) -> None:
    """One worker process per attempt: timeouts and kills enforceable.

    The parent owns the clock: it dispatches up to ``jobs`` concurrent
    attempts (plan order, honouring per-entry backoff eligibility),
    waits on their pipes, kills anything past its deadline and folds
    every outcome through the shared retry/quarantine bookkeeping.
    """
    context = multiprocessing.get_context(_preferred_start_method())
    timeout_s = run.policy.task_timeout_s
    queue: "list[tuple[PlanEntry, int, float]]" = [
        (entry, 1, 0.0) for entry in pending  # (entry, attempt, ready_at)
    ]
    flights: "dict[Any, _Flight]" = {}  # recv-pipe -> flight

    def requeue(entry: "PlanEntry", attempt: int, delay: float) -> None:
        queue.append((entry, attempt + 1, time.monotonic() + delay))

    def settle(flight: _Flight, conn) -> None:
        """Fold one finished/killed/expired worker into the run state."""
        message = None
        try:
            if conn.poll(0):
                message = conn.recv()
        except (EOFError, OSError):
            message = None
        conn.close()
        flight.process.join()
        entry, attempt = flight.entry, flight.attempt
        if message is not None and message[0] == "ok":
            _, rows, duration = message
            run.complete(entry, rows, duration, attempt)
        elif message is not None and message[0] == "error":
            _, error, transient, _trace = message
            delay = run.fail(entry, attempt, "exception", error, transient)
            if delay is not None:
                requeue(entry, attempt, delay)
        else:
            exitcode = flight.process.exitcode
            delay = run.fail(
                entry,
                attempt,
                "killed",
                f"worker died (exitcode {exitcode})",
                transient=True,
            )
            if delay is not None:
                requeue(entry, attempt, delay)

    # Forked workers inherit the parent's OpenBLAS pool size: cap it so
    # ``jobs`` concurrent attempts share the cores instead of each running
    # a pool sized for all of them (see repro.utils.blas).
    blas_saved = cap_blas_threads(jobs)
    try:
        while flights or (queue and not run.aborted):
            now = time.monotonic()
            # Dispatch: plan order among the ready (backoff respected).
            # Serial runs are strictly head-of-line — a backing-off task
            # blocks the queue, so every task reaches its terminal state
            # before the next starts and the journal event sequence is
            # deterministic (the property the fault suite pins).  With
            # jobs > 1, later ready entries overtake a backoff instead.
            if not run.aborted:
                for item in sorted(queue, key=lambda item: item[0].index):
                    if len(flights) >= jobs:
                        break
                    entry, attempt, ready_at = item
                    if ready_at > now:
                        if jobs == 1:
                            break
                        continue
                    queue.remove(item)
                    fault = (
                        run.faults.fault_for(entry.index, attempt)
                        if run.faults is not None
                        else None
                    )
                    recv, send = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_plan_worker,
                        args=(send, entry.task, fault),
                        daemon=True,
                    )
                    run.emit("task_started", **run.ident(entry), attempt=attempt)
                    process.start()
                    send.close()
                    flights[recv] = _Flight(
                        entry=entry,
                        attempt=attempt,
                        process=process,
                        started=now,
                        deadline=None if timeout_s is None else now + timeout_s,
                    )
            if not flights:
                if not queue or run.aborted:
                    break
                # Everything is backing off; sleep until the first is ready.
                wake = min(ready_at for _, _, ready_at in queue)
                time.sleep(max(0.0, min(wake - time.monotonic(), _POLL_S)))
                continue
            # Wait for completions, waking no later than the soonest
            # deadline so an expired worker is killed on time rather
            # than at the next poll tick.
            wait_s = _POLL_S
            for flight in flights.values():
                if flight.deadline is not None:
                    wait_s = min(wait_s, flight.deadline - time.monotonic())
            ready = multiprocessing.connection.wait(
                list(flights), timeout=max(0.0, wait_s)
            )
            for conn in ready:
                settle(flights.pop(conn), conn)
            # Enforce deadlines on whatever is still flying.
            now = time.monotonic()
            for conn, flight in list(flights.items()):
                if flight.deadline is not None and now > flight.deadline:
                    flight.process.kill()
                    flight.process.join()
                    del flights[conn]
                    conn.close()
                    delay = run.fail(
                        flight.entry,
                        flight.attempt,
                        "timeout",
                        f"task exceeded its {timeout_s}s wall-clock timeout",
                        transient=True,
                    )
                    if delay is not None:
                        requeue(flight.entry, flight.attempt, delay)
    finally:
        for conn, flight in flights.items():
            flight.process.kill()
            flight.process.join()
            conn.close()
        restore_blas_threads(blas_saved)
