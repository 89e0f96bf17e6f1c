"""The serving daemon: a deterministic event loop over compiled sessions.

:class:`ServingDaemon` drives the :class:`~repro.serving.core.BatchingCore`
on a virtual timeline: requests arrive as events, the core admits them
into per-model queues and hands due batches to idle logical workers, and
each batch executes through the pool's compiled sessions.  Admission,
flushing, retries and the terminal ledger are the core's; this module
only turns events into core calls and core answers into a
:class:`DaemonReport`.

Determinism contract
--------------------

The daemon is a discrete-event simulation wrapped around *real* batch
execution:

* **Time is virtual.**  Every timestamp comes from the run's
  :class:`~repro.serving.clock.VirtualClock`; service time is modelled
  from the batch's exact fused OHMMA count on the configured GPU preset
  (plus a fixed per-dispatch ``batch_overhead_us``, which is what makes
  batching pay off on the modelled timeline).  Nothing reads wall time,
  so latency percentiles are a pure function of (schedule, config,
  fault plan) and are golden-snapshotted in the ``serve_daemon``
  experiment.
* **Outputs are real.**  Each dispatched batch executes
  :meth:`CompiledModel.run` immediately, so every completed response
  carries the actual :class:`~repro.nn.functional.FunctionalModelRun` —
  bit-identical, per image, to
  ``run_model_functional(model, ..., image=i, keep_outputs=True)``
  whatever the interleaving.
* **Kills are batch positions.**  A :class:`~repro.serving.core.WorkerKill`
  fires on a batch sequence number: a ``before-run`` kill when the batch
  is dispatched (it never executes), an ``after-run`` kill at the
  batch's completion event (it executed, nothing is delivered).

Event ordering at equal virtual times is fixed (completions, then
arrivals, then deadline wake-ups; ties broken by an insertion sequence
number), so concurrent histories replay exactly.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.nn.functional import FunctionalModelRun
from repro.serving.arrivals import Request
from repro.serving.clock import VirtualClock
from repro.serving.core import (
    BEFORE_RUN,
    COMPLETED,
    FAILED,
    REJECTED,
    Batch,
    BatchingCore,
    FaultPlan,
    ShedPolicy,
    Terminal,
)
from repro.serving.pool import SessionPool
from repro.serving.stats import LatencyRecorder

#: Modelled fixed cost of dispatching one batch (kernel launch, queue
#: bookkeeping) — the term a bigger batch amortises on the virtual
#: timeline, mirroring why real serving systems batch at all.
DEFAULT_BATCH_OVERHEAD_US = 50.0

#: The daemon's ladder never shrinks a batch: it always flushes at
#: ``batch_cap``, and refuses only a full queue.
NO_SHED = ShedPolicy(cap_divisor=1)

# Event priorities at equal virtual times (see module docstring).
_PRIO_COMPLETE = 0
_PRIO_ARRIVAL = 1
_PRIO_WAKE = 2


@dataclass(frozen=True)
class ServedResponse:
    """The terminal answer one caller receives.

    Attributes:
        request: the originating request.
        status: ``completed``, ``rejected`` or ``failed``.
        finish_us: virtual time of the terminal event.
        latency_us: ``finish_us - arrival_us`` for completed requests,
            ``0.0`` otherwise.
        reason: why a request was rejected or failed (see
            :mod:`repro.serving.core`); empty when completed.
        result: the per-image functional run (outputs + DeviceStats),
            present only on completed responses.
        worker: serving worker id (completed responses only).
        batch_size: size of the batch this request completed in.
        flush_cause: why that batch flushed (``full`` / ``deadline`` /
            ``drain``).
        attempts: dispatch attempts (> 1 means the request survived a
            worker death and was retried).
    """

    request: Request
    status: str
    finish_us: float
    latency_us: float = 0.0
    reason: str = ""
    result: "FunctionalModelRun | None" = field(default=None, repr=False)
    worker: int = -1
    batch_size: int = 0
    flush_cause: str = ""
    attempts: int = 0


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch, completed or interrupted."""

    model: str
    worker: int
    images: tuple[int, ...]
    flush_cause: str
    dispatch_us: float
    service_us: float
    completed: bool


@dataclass(frozen=True)
class DaemonReport:
    """Everything one daemon run produced."""

    responses: tuple[ServedResponse, ...]
    batches: tuple[BatchRecord, ...]
    latency: LatencyRecorder
    latency_by_model: "dict[str, LatencyRecorder]"
    makespan_us: float
    wall_execute_seconds: float

    def by_id(self) -> "dict[str, ServedResponse]":
        """Responses keyed by request id (terminal answer per caller)."""
        return {resp.request.request_id: resp for resp in self.responses}

    def with_status(self, status: str) -> tuple[ServedResponse, ...]:
        """Responses with one terminal status, in terminal-event order."""
        return tuple(r for r in self.responses if r.status == status)

    @property
    def completed(self) -> tuple[ServedResponse, ...]:
        return self.with_status(COMPLETED)

    @property
    def rejected(self) -> tuple[ServedResponse, ...]:
        return self.with_status(REJECTED)

    @property
    def failed(self) -> tuple[ServedResponse, ...]:
        return self.with_status(FAILED)

    def images_per_sec(self) -> float:
        """Modelled completed-images throughput over the makespan."""
        if self.makespan_us <= 0:
            return 0.0
        return len(self.completed) / (self.makespan_us * 1e-6)


class ServingDaemon:
    """Dynamic-batching request daemon over a compiled-session pool.

    Args:
        pool: per-model compiled sessions (weights encoded once); its
            :meth:`~SessionPool.known_models` are the serve list.
        batch_cap: maximum requests per flushed batch.
        deadline_us: maximum wait of the oldest pending request before a
            partial batch flushes.
        queue_depth: per-model admission bound on pending requests.
        workers: logical worker count batches are sharded across.
        config: GPU preset converting exact fused OHMMA counts into the
            modelled service time.
        batch_overhead_us: fixed modelled per-dispatch cost.
        faults: worker kills by batch sequence number.
        max_retries: additional dispatch attempts a request interrupted
            by a worker death is granted before failing terminally.
    """

    def __init__(
        self,
        pool: SessionPool,
        batch_cap: int = 8,
        deadline_us: float = 5_000.0,
        queue_depth: int = 64,
        workers: int = 2,
        config: "GpuConfig | None" = None,
        batch_overhead_us: float = DEFAULT_BATCH_OVERHEAD_US,
        faults: "FaultPlan | None" = None,
        max_retries: int = 1,
    ) -> None:
        if batch_overhead_us < 0:
            raise ConfigError(
                f"batch_overhead_us must be >= 0, got {batch_overhead_us}"
            )
        self.pool = pool
        self.config = config or V100_CONFIG
        self.batch_overhead_us = float(batch_overhead_us)
        # Every run starts from a fresh core; building one here validates
        # the configuration eagerly.
        self._core_args = dict(
            models=pool.known_models(), batch_cap=batch_cap,
            deadline_us=deadline_us, queue_depth=queue_depth, workers=workers,
            max_retries=max_retries, shed=NO_SHED, faults=faults,
        )
        BatchingCore(**self._core_args)

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request]) -> DaemonReport:
        """Serve one request schedule to completion.

        Processes the schedule as a discrete-event simulation on the
        virtual clock and returns only when every admitted request has a
        terminal response.
        """
        clock = VirtualClock()
        core = BatchingCore(**self._core_args)
        responses: list[ServedResponse] = []
        batches: list[BatchRecord] = []
        wall_seconds = 0.0
        events: list = []
        order = itertools.count()

        def push(when_us: float, priority: int, payload) -> None:
            heapq.heappush(events, (when_us, priority, next(order), payload))

        for _, request in sorted(
            enumerate(requests), key=lambda pair: (pair[1].arrival_us, pair[0])
        ):
            push(request.arrival_us, _PRIO_ARRIVAL, request)

        def wake(models: Iterable[str]) -> None:
            """Wake the dispatcher when these models' new heads come due.

            A head that waited through a busy worker may already be
            overdue; it is due *now*, never in the past.
            """
            for model in models:
                deadline = core.head_deadline_us(model)
                if deadline is not None:
                    push(max(deadline, clock.now_us), _PRIO_WAKE, None)

        def respond(terminals: "list[Terminal]", batch=None, run=None) -> None:
            for terminal in terminals:
                request = terminal.request
                served = {}
                if terminal.status == COMPLETED:
                    served = dict(
                        latency_us=clock.now_us - request.arrival_us,
                        result=run.per_image[batch.requests.index(request)],
                        worker=batch.worker,
                        batch_size=len(batch.requests),
                        flush_cause=batch.cause,
                    )
                responses.append(ServedResponse(
                    request=request, status=terminal.status,
                    finish_us=clock.now_us, reason=terminal.reason,
                    attempts=terminal.attempts, **served,
                ))

        def record(batch: Batch, service_us: float, completed: bool) -> BatchRecord:
            return BatchRecord(
                model=batch.model,
                worker=batch.worker,
                images=tuple(request.image for request in batch.requests),
                flush_cause=batch.cause,
                dispatch_us=clock.now_us,
                service_us=service_us,
                completed=completed,
            )

        def died(batch: Batch) -> None:
            respond(core.worker_died(batch, clock.now_us))
            wake((batch.model,))

        def dispatch() -> None:
            """Hand every due batch to an idle worker."""
            nonlocal wall_seconds
            while True:
                idle = core.idle_workers()
                if not idle:
                    return
                batch, expired = core.take(idle[0], clock.now_us)
                respond(expired)
                wake(dict.fromkeys(t.request.model for t in expired))
                if batch is None:
                    if expired:
                        continue
                    return
                wake((batch.model,))  # the next head starts waiting
                if batch.kill is not None and batch.kill.at == BEFORE_RUN:
                    batches.append(record(batch, 0.0, completed=False))
                    died(batch)
                    continue
                wall_start = time.perf_counter()
                run = self.pool.session(batch.model).run(
                    [request.image for request in batch.requests]
                )
                wall_seconds += time.perf_counter() - wall_start
                service_us = self.batch_overhead_us + self.config.cycles_to_us(
                    run.ohmma_issued / self.config.ohmma_slots_per_cycle
                )
                push(
                    clock.now_us + service_us, _PRIO_COMPLETE,
                    (batch, run, record(batch, service_us, completed=False)),
                )

        # ---------------- event loop ---------------- #
        while events:
            when_us, priority, _, payload = heapq.heappop(events)
            clock.advance_to(when_us)
            if priority == _PRIO_ARRIVAL:
                refusal = core.admit(payload, clock.now_us)
                if refusal is not None:
                    respond([refusal])
                    continue
                wake((payload.model,))
            elif priority == _PRIO_COMPLETE:
                batch, run, dispatched = payload
                if batch.kill is not None:  # after-run: died before delivering
                    batches.append(dispatched)
                    died(batch)
                else:
                    batches.append(dataclasses.replace(dispatched, completed=True))
                    respond(core.complete(batch, clock.now_us), batch, run)
            dispatch()

        return DaemonReport(
            responses=tuple(responses),
            batches=tuple(batches),
            latency=core.latency,
            latency_by_model=core.latency_by_model,
            makespan_us=clock.now_us,
            wall_execute_seconds=wall_seconds,
        )
