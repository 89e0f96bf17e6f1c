"""The batching core: one contract behind the daemon and the live server.

:class:`BatchingCore` is a pure state machine.  It reads no clock, starts
no thread and touches no socket: every call takes the caller's
``now_us`` and returns the terminal answers the caller must deliver.
Two event loops run it — the virtual-clock
:class:`~repro.serving.daemon.ServingDaemon` and the wall-clock
:class:`~repro.serving.server.ServingServer` — so each rule exists once,
here: admission and its refusal order (:meth:`BatchingCore.admit`), the
flush rule with the :class:`ShedPolicy` ladder and oldest head first
(:meth:`BatchingCore.take`), the retry bound and the no-workers sweep
(:meth:`BatchingCore.worker_died`), the exactly-once terminal ledger,
and :class:`WorkerKill` lookup by batch sequence number.
``docs/architecture.md`` ("Batching core") states the contract in full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.errors import ConfigError
from repro.serving.arrivals import Request
from repro.serving.stats import LatencyRecorder

#: Terminal statuses.
COMPLETED = "completed"
REJECTED = "rejected"
FAILED = "failed"

#: Flush causes recorded on every taken batch.
FLUSH_FULL = "full"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"

#: Refusal and failure reasons.
DRAINING = "draining"
NO_WORKERS = "no-workers"
DUPLICATE = "duplicate"
UNKNOWN_MODEL = "unknown-model"
DEADLINE = "deadline"
QUEUE_FULL = "queue-full"
WORKER_DIED = "worker-died"

#: Answers a retry can cure: the queue may empty, a restarted server
#: may have workers again.
RETRYABLE_REJECTIONS = (QUEUE_FULL, DRAINING)
RETRYABLE_FAILURES = (NO_WORKERS, WORKER_DIED)

#: Wildcard worker index: the kill fires on the core-global
#: ``batch_seq``-th batch, whichever worker takes it.  Worker threads
#: race for batches, so a kill on a concrete worker may never fire;
#: this one always does.
ANY_WORKER = -1

#: When a kill fires relative to the batch's session run.
BEFORE_RUN = "before-run"
AFTER_RUN = "after-run"


@dataclass(frozen=True)
class ShedPolicy:
    """The degradation ladder, driven by per-model queue depth.

    Attributes:
        soft_fraction: queue utilization at which level 1 engages.
        cap_divisor: the batch cap shrink factor at level >= 1.
    """

    soft_fraction: float = 0.5
    cap_divisor: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ConfigError(
                f"soft_fraction must be in (0, 1], got {self.soft_fraction}"
            )
        if self.cap_divisor < 1:
            raise ConfigError(
                f"cap_divisor must be >= 1, got {self.cap_divisor}"
            )

    def level(self, depth: int, queue_depth: int) -> int:
        """0 = normal, 1 = shrink the batch cap, 2 = reject new work."""
        if depth >= queue_depth:
            return 2
        if depth >= self.soft_fraction * queue_depth:
            return 1
        return 0

    def effective_cap(self, batch_cap: int, level: int) -> int:
        """The flush cap at a shed level (never below one)."""
        if level >= 1:
            return max(1, batch_cap // self.cap_divisor)
        return batch_cap


@dataclass(frozen=True)
class WorkerKill:
    """Kill one worker on its ``batch_seq``-th batch.

    Attributes:
        worker: worker index (0-based), or :data:`ANY_WORKER` to match
            whichever worker takes the core-global ``batch_seq``-th
            batch.
        batch_seq: 1-based count of batches taken — per worker for a
            concrete worker index, core-global for :data:`ANY_WORKER`.
        at: ``"before-run"`` (the batch never executes) or
            ``"after-run"`` (it executed, but the worker dies before any
            response is delivered — the retry recomputes, which is safe
            because a session run is a pure function of its images).
    """

    worker: int
    batch_seq: int
    at: str = BEFORE_RUN

    def __post_init__(self) -> None:
        if self.worker < ANY_WORKER:
            raise ConfigError(
                f"worker index must be >= 0 (or {ANY_WORKER} for any "
                f"worker), got {self.worker}"
            )
        if self.batch_seq < 1:
            raise ConfigError(f"batch_seq is 1-based, got {self.batch_seq}")
        if self.at not in (BEFORE_RUN, AFTER_RUN):
            raise ConfigError(
                f"at must be {BEFORE_RUN!r} or {AFTER_RUN!r}, got {self.at!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Every worker kill injected into one serving lifetime."""

    worker_kills: tuple[WorkerKill, ...] = ()

    def kill_for(
        self, worker: int, worker_seq: int, global_seq: int
    ) -> "WorkerKill | None":
        """The kill firing when ``worker`` takes a batch.

        Args:
            worker: the taking worker's index.
            worker_seq: that worker's 1-based batch count.
            global_seq: the core-global 1-based batch count, matched
                against :data:`ANY_WORKER` kills.
        """
        for kill in self.worker_kills:
            if kill.worker == worker and kill.batch_seq == worker_seq:
                return kill
            if kill.worker == ANY_WORKER and kill.batch_seq == global_seq:
                return kill
        return None


class BatchQueue:
    """Pending requests of one model, flushed by size or deadline.

    Args:
        model: model name this queue shards.
        batch_cap: maximum requests per flushed batch (>= 1).
        deadline_us: maximum time the oldest pending request may wait
            before the partial batch becomes due (> 0).
        queue_depth: admission bound on pending requests (>= batch_cap,
            so a full batch can always accumulate).
    """

    __slots__ = ("model", "batch_cap", "deadline_us", "queue_depth", "_pending")

    def __init__(
        self,
        model: str,
        batch_cap: int,
        deadline_us: float,
        queue_depth: int,
    ) -> None:
        if batch_cap < 1:
            raise ConfigError(f"batch_cap must be >= 1, got {batch_cap}")
        if deadline_us <= 0:
            raise ConfigError(f"deadline_us must be > 0, got {deadline_us}")
        if queue_depth < batch_cap:
            raise ConfigError(
                f"queue_depth ({queue_depth}) must be >= batch_cap "
                f"({batch_cap}); a smaller bound could never admit a "
                "full batch"
            )
        self.model = model
        self.batch_cap = int(batch_cap)
        self.deadline_us = float(deadline_us)
        self.queue_depth = int(queue_depth)
        self._pending: "deque[Request]" = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def offer(self, request: Request) -> bool:
        """Admit one request; ``False`` means the depth bound refused it."""
        if len(self._pending) >= self.queue_depth:
            return False
        self._pending.append(request)
        return True

    def requeue_front(self, requests: "tuple[Request, ...]") -> None:
        """Put a failed batch back at the head, original order preserved.

        The requests were admitted once, so they bypass the depth bound
        rather than being dropped on a full queue.
        """
        for request in reversed(requests):
            self._pending.appendleft(request)

    def head_deadline_us(self) -> "float | None":
        """When the current oldest request's wait expires (None if empty)."""
        if not self._pending:
            return None
        return self._pending[0].arrival_us + self.deadline_us

    def due_cause(self, now_us: float, limit: int) -> "str | None":
        """Why a batch of at most ``limit`` requests is due."""
        if len(self._pending) >= limit:
            return FLUSH_FULL
        deadline = self.head_deadline_us()
        if deadline is not None and now_us >= deadline:
            return FLUSH_DEADLINE
        return None

    def take_batch(self, limit: int) -> tuple[Request, ...]:
        """Remove and return the next batch (FIFO), at most ``limit``
        requests."""
        size = min(limit, len(self._pending))
        return tuple(self._pending.popleft() for _ in range(size))


@dataclass(frozen=True)
class Terminal:
    """One answer for the caller to deliver.

    A ``rejected`` answer from :meth:`BatchingCore.admit` is a refusal
    and never entered the ledger; every other one is the request's
    single ledgered terminal.
    """

    request: Request
    status: str
    reason: str = ""
    attempts: int = 0


@dataclass(frozen=True)
class Batch:
    """One taken batch, in flight on ``worker`` until the caller settles it
    with :meth:`~BatchingCore.complete`, :meth:`~BatchingCore.fail` or
    :meth:`~BatchingCore.worker_died`."""

    seq: int
    worker: int
    model: str
    requests: tuple[Request, ...]
    cause: str
    kill: "WorkerKill | None" = None


class BatchingCore:
    """Admission, flushing, retries and the terminal ledger of one lifetime.

    Args:
        models: the serve list; other models are refused
            ``unknown-model``.
        batch_cap: maximum requests per batch.
        deadline_us: maximum wait of a queue's oldest request before a
            partial batch is due.
        queue_depth: per-model admission bound on queued requests.
        workers: worker count (indices ``0..workers-1``).
        max_retries: extra takes a request interrupted by a worker death
            is granted before failing ``worker-died``.
        shed: the load-shedding ladder.
        faults: injected worker kills; each must name ``ANY_WORKER`` or
            an existing worker.
    """

    def __init__(
        self,
        models: Iterable[str],
        batch_cap: int,
        deadline_us: float,
        queue_depth: int,
        workers: int,
        max_retries: int,
        shed: ShedPolicy,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        BatchQueue("__validate__", batch_cap, deadline_us, queue_depth)
        self.faults = faults or FaultPlan()
        for kill in self.faults.worker_kills:
            if kill.worker >= workers:
                raise ConfigError(
                    f"fault plan kills worker {kill.worker} but only "
                    f"{workers} exist"
                )
        self.models = frozenset(models)
        self.batch_cap = int(batch_cap)
        self.deadline_us = float(deadline_us)
        self.queue_depth = int(queue_depth)
        self.max_retries = int(max_retries)
        self.shed = shed
        self.draining = False
        self.live_workers = int(workers)
        #: Requests put back in a queue after a worker death.
        self.retries = 0
        #: Second terminals for one id: dropped, never delivered.
        self.violations = 0
        #: Completed-request latencies, overall and per model.
        self.latency = LatencyRecorder()
        self.latency_by_model: "dict[str, LatencyRecorder]" = {}
        self._queues: "dict[str, BatchQueue]" = {}
        self._seen: set[str] = set()
        self._ledger: "dict[str, str]" = {}
        self._attempts: "dict[str, int]" = {}
        self._alive = [True] * self.live_workers
        self._inflight: "dict[int, Batch]" = {}
        self._worker_batches = [0] * self.live_workers
        self._batches = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def ledger(self) -> "Mapping[str, str]":
        """Terminal status per admitted request id (read-only view)."""
        return MappingProxyType(self._ledger)

    @property
    def pending(self) -> int:
        """Queued requests over every model."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def inflight(self) -> int:
        """Requests in taken, unsettled batches."""
        return sum(len(batch.requests) for batch in self._inflight.values())

    @property
    def drained(self) -> bool:
        """Draining, with nothing queued and nothing in flight."""
        return self.draining and not self._inflight and not self.pending

    def depth(self, model: str) -> int:
        """Queued requests of one model."""
        queue = self._queues.get(model)
        return len(queue) if queue is not None else 0

    def shed_level(self) -> int:
        """The highest shed level over every model's queue."""
        return max(
            (self.shed.level(len(q), self.queue_depth) for q in self._queues.values()),
            default=0,
        )

    def head_deadline_us(self, model: str) -> "float | None":
        """When one model's oldest queued request makes its queue due."""
        queue = self._queues.get(model)
        return queue.head_deadline_us() if queue is not None else None

    def next_deadline_us(self) -> "float | None":
        """The earliest head deadline over every queue (None if all empty)."""
        deadlines = [
            queue.head_deadline_us() for queue in self._queues.values() if queue
        ]
        return min(deadlines, default=None)

    def idle_workers(self) -> list[int]:
        """Live workers holding no batch, lowest index first."""
        return [
            worker for worker, alive in enumerate(self._alive)
            if alive and worker not in self._inflight
        ]

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def admit(self, request: Request, now_us: float) -> "Terminal | None":
        """Queue one arrival; ``None`` accepts, a Terminal is the refusal.

        Refusals, first match wins: ``draining``, ``no-workers``,
        ``duplicate`` (admitted before in this lifetime),
        ``unknown-model`` (not on the serve list), ``deadline`` (the
        request's own deadline passed), ``queue-full``.  A refusal never
        enters the ledger.
        """
        if self.draining:
            return Terminal(request, REJECTED, DRAINING)
        if self.live_workers == 0:
            return Terminal(request, REJECTED, NO_WORKERS)
        if request.request_id in self._seen:
            return Terminal(request, REJECTED, DUPLICATE)
        if request.model not in self.models:
            return Terminal(request, REJECTED, UNKNOWN_MODEL)
        if request.deadline_us is not None and now_us >= request.deadline_us:
            return Terminal(request, REJECTED, DEADLINE)
        queue = self._queues.get(request.model)
        if queue is None:
            queue = BatchQueue(
                request.model, self.batch_cap, self.deadline_us, self.queue_depth
            )
            self._queues[request.model] = queue
        # A full queue is shed level 2: new work is refused outright.
        if not queue.offer(request):
            return Terminal(request, REJECTED, QUEUE_FULL)
        self._seen.add(request.request_id)
        return None

    def take(
        self, worker: int, now_us: float
    ) -> "tuple[Batch | None, list[Terminal]]":
        """Hand an idle worker the next due batch.

        A queue is due when its depth reaches the shed ladder's
        effective cap (``full``), when its head has waited
        ``deadline_us`` (``deadline``), or while draining (``drain``).
        Among due queues the oldest head wins, ties going to the queue
        created first, so one saturated model cannot starve another.
        Each request taken counts one attempt.

        Returns:
            ``(batch, expired)``: the batch (``None`` when nothing is
            due, or when every request taken had outlived its own
            deadline — take again), and the ``rejected(deadline)``
            answers of those expired requests.
        """
        if not self._alive[worker] or worker in self._inflight:
            raise ConfigError(f"worker {worker} is dead or already holds a batch")
        due = self._next_due(now_us)
        if due is None:
            return None, []
        queue, cause, limit = due
        live, expired = [], []
        for request in queue.take_batch(limit):
            if request.deadline_us is not None and now_us >= request.deadline_us:
                expired.append(request)
            else:
                self._attempts[request.request_id] = (
                    self._attempts.get(request.request_id, 0) + 1
                )
                live.append(request)
        answers = self._terminals(expired, REJECTED, DEADLINE, now_us)
        if not live:
            return None, answers
        self._batches += 1
        self._worker_batches[worker] += 1
        batch = Batch(
            seq=self._batches,
            worker=worker,
            model=queue.model,
            requests=tuple(live),
            cause=cause,
            kill=self.faults.kill_for(
                worker, self._worker_batches[worker], self._batches
            ),
        )
        self._inflight[worker] = batch
        return batch, answers

    def complete(self, batch: Batch, now_us: float) -> list[Terminal]:
        """The batch ran and its worker lives: every request completes."""
        self._release(batch)
        return self._terminals(batch.requests, COMPLETED, "", now_us)

    def fail(self, batch: Batch, reason: str, now_us: float) -> list[Terminal]:
        """The batch's session run raised: every request fails ``reason``."""
        self._release(batch)
        return self._terminals(batch.requests, FAILED, reason, now_us)

    def worker_died(self, batch: Batch, now_us: float) -> list[Terminal]:
        """The batch's worker died before delivering it.

        Requests past the retry bound fail ``worker-died``; the rest are
        requeued at the front, or fail ``no-workers`` with every queued
        request when this was the last live worker.
        """
        self._release(batch)
        self._alive[batch.worker] = False
        self.live_workers -= 1
        exhausted, survivors = [], []
        for request in batch.requests:
            if self._attempts[request.request_id] > self.max_retries:
                exhausted.append(request)
            else:
                survivors.append(request)
        terminals = self._terminals(exhausted, FAILED, WORKER_DIED, now_us)
        if self.live_workers > 0:
            if survivors:
                self._queues[batch.model].requeue_front(tuple(survivors))
                self.retries += len(survivors)
            return terminals
        terminals.extend(self._terminals(survivors, FAILED, NO_WORKERS, now_us))
        for queue in self._queues.values():
            if queue:
                terminals.extend(self._terminals(
                    queue.take_batch(len(queue)), FAILED, NO_WORKERS, now_us
                ))
        return terminals

    def drain(self) -> None:
        """Refuse new arrivals and make every queued request due at once."""
        self.draining = True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _next_due(self, now_us: float):
        """``(queue, cause, limit)`` of the due queue with the oldest head."""
        best = None
        for queue in self._queues.values():
            depth = len(queue)
            if not depth:
                continue
            limit = self.shed.effective_cap(
                self.batch_cap, self.shed.level(depth, self.queue_depth)
            )
            cause = FLUSH_DRAIN if self.draining else queue.due_cause(now_us, limit)
            if cause is None:
                continue
            # Every queue shares deadline_us, so the earliest head
            # deadline is the oldest head.
            if best is None or queue.head_deadline_us() < best[0].head_deadline_us():
                best = (queue, cause, limit)
        return best

    def _release(self, batch: Batch) -> None:
        if self._inflight.get(batch.worker) is not batch:
            raise ConfigError(f"batch {batch.seq} is not in flight")
        del self._inflight[batch.worker]

    def _terminals(
        self, requests, status: str, reason: str, now_us: float
    ) -> list[Terminal]:
        """Ledger one terminal answer per request.

        A second terminal for an id is an invariant breach: it is
        counted in ``violations`` and dropped, never delivered.
        """
        answers: list[Terminal] = []
        for request in requests:
            request_id = request.request_id
            if request_id in self._ledger:
                self.violations += 1
                continue
            self._ledger[request_id] = status
            if status == COMPLETED:
                latency_us = max(0.0, now_us - request.arrival_us)
                self.latency.record(latency_us)
                self.latency_by_model.setdefault(
                    request.model, LatencyRecorder()
                ).record(latency_us)
            answers.append(Terminal(
                request, status, reason, self._attempts.pop(request_id, 0)
            ))
        return answers
