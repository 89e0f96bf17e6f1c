"""The batching core on its own: the contract rules, then a property suite.

:class:`~repro.serving.core.BatchingCore` reads no clock, so every test
here hands it explicit ``now_us`` values.  The property suite drives it
through arbitrary interleavings of admits, takes, completions, execute
failures, worker deaths (before and after the run) and drain, and
checks each answer against a small reference model of the same
contract: refusal order, flush choice, FIFO order with requeued
survivors at the front, the retry bound and the no-workers sweep.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serving import Request
from repro.serving.core import (
    AFTER_RUN,
    ANY_WORKER,
    BEFORE_RUN,
    COMPLETED,
    DEADLINE,
    DRAINING,
    DUPLICATE,
    FAILED,
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_FULL,
    NO_WORKERS,
    QUEUE_FULL,
    REJECTED,
    UNKNOWN_MODEL,
    WORKER_DIED,
    BatchingCore,
    FaultPlan,
    ShedPolicy,
    WorkerKill,
)

SERVED = ("A", "B")
NO_SHED = ShedPolicy(cap_divisor=1)


def make_core(**kwargs) -> BatchingCore:
    config = dict(
        models=SERVED, batch_cap=2, deadline_us=100.0, queue_depth=4,
        workers=1, max_retries=1, shed=NO_SHED,
    )
    config.update(kwargs)
    return BatchingCore(**config)


def req(rid, model="A", at=0.0, deadline_us=None) -> Request:
    return Request(rid, model, 0, arrival_us=at, deadline_us=deadline_us)


class TestAdmission:
    def test_refusals_in_order(self):
        core = make_core(workers=1, queue_depth=2)
        assert core.admit(req("a"), 0.0) is None
        assert core.admit(req("b"), 0.0) is None
        # A duplicate of an unknown model with an expired deadline on a
        # full queue is refused for being a duplicate: the first rule wins.
        refusal = core.admit(req("a", "Z", deadline_us=0.0), 1.0)
        assert (refusal.status, refusal.reason) == (REJECTED, DUPLICATE)
        assert core.admit(req("c", "Z"), 1.0).reason == UNKNOWN_MODEL
        assert core.admit(req("c", deadline_us=1.0), 1.0).reason == DEADLINE
        assert core.admit(req("c"), 1.0).reason == QUEUE_FULL
        core.drain()
        assert core.admit(req("c"), 1.0).reason == DRAINING
        # Refusals never enter the ledger.
        assert core.ledger == {}

    def test_expired_deadline_rejected_at_admission(self):
        core = make_core()
        refusal = core.admit(req("r1", deadline_us=1.0), 2.0)
        assert (refusal.status, refusal.reason) == (REJECTED, DEADLINE)
        assert core.depth("A") == 0

    def test_no_workers_after_the_last_death(self):
        core = make_core(workers=1, max_retries=1)
        for rid in ("a", "b", "c"):
            assert core.admit(req(rid), 0.0) is None
        batch, _ = core.take(0, 0.0)
        answers = core.worker_died(batch, 5.0)
        # The survivors and the still-queued request all fail at once.
        assert {(t.request.request_id, t.status, t.reason) for t in answers} == {
            ("a", FAILED, NO_WORKERS), ("b", FAILED, NO_WORKERS),
            ("c", FAILED, NO_WORKERS),
        }
        assert core.pending == 0
        assert core.admit(req("d"), 6.0).reason == NO_WORKERS


class TestFlushRule:
    def test_shed_ladder_shrinks_flush_cap(self):
        core = make_core(
            batch_cap=4, queue_depth=8,
            shed=ShedPolicy(soft_fraction=0.5, cap_divisor=2),
        )
        for n in range(4):  # depth 4 >= 0.5 * 8 -> level 1, cap 4 -> 2
            assert core.admit(req(f"r{n}"), 0.0) is None
        assert core.shed_level() == 1
        batch, _ = core.take(0, 0.0)
        assert batch.cause == FLUSH_FULL  # depth 4 >= shrunken cap 2
        assert [r.request_id for r in batch.requests] == ["r0", "r1"]

    def test_oldest_head_is_served_first(self):
        core = make_core(batch_cap=2, queue_depth=8)
        core.admit(req("a0", "A", at=0.0), 0.0)
        core.admit(req("b0", "B", at=10.0), 10.0)
        core.admit(req("a1", "A", at=20.0), 20.0)
        batch, _ = core.take(0, 20.0)  # A is full, B is not due yet
        core.complete(batch, 30.0)
        core.admit(req("a2", "A", at=40.0), 40.0)
        core.admit(req("a3", "A", at=50.0), 50.0)
        # A is full again, but B's head (t=10) is older and overdue.
        batch, _ = core.take(0, 110.0)
        assert (batch.model, batch.cause) == ("B", FLUSH_DEADLINE)

    def test_ties_go_to_the_queue_created_first(self):
        core = make_core(batch_cap=1, queue_depth=4)
        core.admit(req("b0", "B"), 0.0)
        core.admit(req("a0", "A"), 0.0)
        batch, _ = core.take(0, 0.0)
        assert batch.model == "B"

    def test_expired_requests_answered_when_taken(self):
        core = make_core(batch_cap=2, queue_depth=4)
        core.admit(req("late", at=0.0, deadline_us=5.0), 0.0)
        core.admit(req("ok", at=0.0), 0.0)
        batch, expired = core.take(0, 10.0)
        assert [r.request_id for r in batch.requests] == ["ok"]
        assert [(t.request.request_id, t.reason) for t in expired] == [
            ("late", DEADLINE),
        ]
        # A take whose every request expired hands out no batch.
        core.complete(batch, 11.0)
        core.admit(req("gone", at=20.0, deadline_us=25.0), 20.0)
        assert core.take(0, 200.0)[0] is None
        assert core.ledger["gone"] == REJECTED

    def test_drain_flushes_partial_batches(self):
        core = make_core(batch_cap=4, queue_depth=4)
        core.admit(req("a"), 0.0)
        assert core.take(0, 1.0) == (None, [])
        core.drain()
        batch, _ = core.take(0, 1.0)
        assert batch.cause == FLUSH_DRAIN
        assert not core.drained
        core.complete(batch, 2.0)
        assert core.drained


class TestKills:
    @pytest.mark.parametrize("worker", [2, 5])
    def test_kill_for_a_missing_worker_rejected(self, worker):
        with pytest.raises(ConfigError, match=f"kills worker {worker}"):
            make_core(workers=2, faults=FaultPlan((WorkerKill(worker, 1),)))

    def test_kill_validation(self):
        with pytest.raises(ConfigError):
            WorkerKill(-2, 1)
        with pytest.raises(ConfigError):
            WorkerKill(0, 0)
        with pytest.raises(ConfigError):
            WorkerKill(0, 1, "mid-run")

    def test_kills_match_worker_and_global_sequence(self):
        core = make_core(
            batch_cap=1, workers=2, queue_depth=8,
            faults=FaultPlan((
                WorkerKill(1, 2, AFTER_RUN), WorkerKill(ANY_WORKER, 3),
            )),
        )
        for n in range(4):
            core.admit(req(f"r{n}"), 0.0)
        kills = []
        for worker in (0, 1, 0, 1):
            batch, _ = core.take(worker, 0.0)
            kills.append(batch.kill)
            core.complete(batch, 0.0)
        assert kills == [
            None, None, WorkerKill(ANY_WORKER, 3), WorkerKill(1, 2, AFTER_RUN),
        ]

    def test_take_by_a_busy_or_dead_worker_is_an_error(self):
        core = make_core(batch_cap=1, queue_depth=4)
        core.admit(req("a"), 0.0)
        core.admit(req("b"), 0.0)
        batch, _ = core.take(0, 0.0)
        with pytest.raises(ConfigError):
            core.take(0, 0.0)
        core.worker_died(batch, 0.0)
        with pytest.raises(ConfigError):
            core.take(0, 0.0)


# --------------------------------------------------------------------- #
# Property suite
# --------------------------------------------------------------------- #
MODELS = ("A", "B", "Z")  # Z is not on the serve list

CONFIGS = st.fixed_dictionaries({
    "batch_cap": st.integers(1, 4),
    "extra_depth": st.integers(0, 4),
    "deadline_us": st.floats(10.0, 200.0),
    "workers": st.integers(1, 3),
    "max_retries": st.integers(0, 2),
    "soft_fraction": st.floats(0.05, 1.0),
    "cap_divisor": st.integers(1, 3),
    "kills": st.lists(
        st.tuples(
            st.integers(-1, 2), st.integers(1, 6),
            st.sampled_from([BEFORE_RUN, AFTER_RUN]),
        ),
        max_size=3,
    ),
})

ADMIT = st.tuples(
    st.just("admit"), st.integers(0, 15), st.sampled_from(MODELS),
    st.one_of(st.none(), st.floats(0.0, 300.0)),
)
TAKE = st.tuples(st.just("take"), st.integers(0, 2))
COMPLETE = st.tuples(st.just("complete"), st.integers(0, 2))
ADVANCE = st.tuples(st.just("advance"), st.floats(0.0, 150.0))
# Repeated branches weight the draw: mostly traffic, rarely a drain.
OPS = st.lists(
    st.one_of(
        ADMIT, ADMIT, ADMIT, TAKE, TAKE, COMPLETE, COMPLETE, ADVANCE,
        st.tuples(st.just("fail"), st.integers(0, 2)),
        st.tuples(st.just("drain")),
    ),
    min_size=10,
    max_size=80,
)


class Harness:
    """Drives one core as the daemon and server do, checking each answer
    against a reference model."""

    def __init__(self, config):
        self.workers = config["workers"]
        self.max_retries = config["max_retries"]
        self.batch_cap = config["batch_cap"]
        self.queue_depth = config["batch_cap"] + config["extra_depth"]
        self.deadline_us = config["deadline_us"]
        self.shed = ShedPolicy(config["soft_fraction"], config["cap_divisor"])
        self.plan = FaultPlan(tuple(
            WorkerKill(worker, seq, at) for worker, seq, at in config["kills"]
            if worker < self.workers
        ))
        self.core = BatchingCore(
            models=SERVED, batch_cap=self.batch_cap,
            deadline_us=self.deadline_us, queue_depth=self.queue_depth,
            workers=self.workers, max_retries=self.max_retries,
            shed=self.shed, faults=self.plan,
        )
        self.now = 0.0
        # The reference model.
        self.queues: "dict[str, deque]" = {}
        self.admitted: set[str] = set()
        self.answered: dict[str, tuple[str, str]] = {}
        self.attempts: dict[str, int] = {}
        self.alive = [True] * self.workers
        self.in_flight: dict = {}  # worker -> batch
        self.draining = False
        self.worker_seq = [0] * self.workers
        self.global_seq = 0

    # -- reference rules ------------------------------------------------ #
    def expected_refusal(self, request):
        if self.draining:
            return DRAINING
        if not any(self.alive):
            return NO_WORKERS
        if request.request_id in self.admitted:
            return DUPLICATE
        if request.model not in SERVED:
            return UNKNOWN_MODEL
        if request.deadline_us is not None and self.now >= request.deadline_us:
            return DEADLINE
        queue = self.queues.setdefault(request.model, deque())
        if len(queue) >= self.queue_depth:
            return QUEUE_FULL
        return None

    def limit(self, depth):
        return self.shed.effective_cap(
            self.batch_cap, self.shed.level(depth, self.queue_depth)
        )

    def expected_due(self):
        best = None
        for model, queue in self.queues.items():  # creation order
            if not queue:
                continue
            limit = self.limit(len(queue))
            if self.draining:
                cause = FLUSH_DRAIN
            elif len(queue) >= limit:
                cause = FLUSH_FULL
            elif self.now >= queue[0].arrival_us + self.deadline_us:
                cause = FLUSH_DEADLINE
            else:
                continue
            if best is None or queue[0].arrival_us < best[1][0].arrival_us:
                best = (model, queue, cause, limit)
        return best

    def record(self, answers, expected):
        """Check ledgered answers: exactly the expected ones, once each."""
        got = {t.request.request_id: (t.status, t.reason) for t in answers}
        assert len(got) == len(answers)
        assert got == expected
        for rid, outcome in got.items():
            assert rid in self.admitted  # refusals never reach here
            assert rid not in self.answered  # exactly once
            self.answered[rid] = outcome
        for terminal in answers:
            assert terminal.attempts <= self.max_retries + 1
        assert self.core.violations == 0
        assert set(self.core.ledger) == set(self.answered)

    # -- operations ----------------------------------------------------- #
    def admit(self, index, model, deadline_offset):
        request = Request(
            f"r{index}", model, index, arrival_us=self.now,
            deadline_us=(
                None if deadline_offset is None else self.now + deadline_offset
            ),
        )
        expected = self.expected_refusal(request)
        refusal = self.core.admit(request, self.now)
        if expected is None:
            assert refusal is None
            self.admitted.add(request.request_id)
            self.queues[model].append(request)
        else:
            assert (refusal.status, refusal.reason) == (REJECTED, expected)
        # A refusal never enters the ledger.
        assert set(self.core.ledger) == set(self.answered)

    def take(self, pick):
        idle = self.core.idle_workers()
        assert idle == [
            w for w in range(self.workers)
            if self.alive[w] and w not in self.in_flight
        ]
        if not idle:
            return
        worker = idle[pick % len(idle)]
        due = self.expected_due()
        batch, expired = self.core.take(worker, self.now)
        if due is None:
            assert (batch, expired) == (None, [])
            return
        model, queue, cause, limit = due
        raw = [queue.popleft() for _ in range(min(limit, len(queue)))]
        # Every batch respects the effective cap when taken, and a short
        # one only flushes on a deadline or a drain.
        assert len(raw) <= limit
        if len(raw) < limit:
            assert cause in (FLUSH_DEADLINE, FLUSH_DRAIN)
        late = [
            r for r in raw if r.deadline_us is not None and self.now >= r.deadline_us
        ]
        live = [r for r in raw if r not in late]
        self.record(expired, {r.request_id: (REJECTED, DEADLINE) for r in late})
        if not live:
            assert batch is None
            return
        # FIFO per model, requeued survivors first (the model's order).
        assert (batch.model, batch.cause, batch.worker) == (model, cause, worker)
        assert list(batch.requests) == live
        for r in live:
            self.attempts[r.request_id] = self.attempts.get(r.request_id, 0) + 1
            assert self.attempts[r.request_id] <= self.max_retries + 1
        self.global_seq += 1
        self.worker_seq[worker] += 1
        assert batch.seq == self.global_seq
        assert batch.kill == self.plan.kill_for(
            worker, self.worker_seq[worker], self.global_seq
        )
        if batch.kill is not None and batch.kill.at == BEFORE_RUN:
            self.die(batch)
        else:
            self.in_flight[worker] = batch

    def settle(self, pick, failed):
        if not self.in_flight:
            return
        worker = sorted(self.in_flight)[pick % len(self.in_flight)]
        batch = self.in_flight.pop(worker)
        if failed:  # the session raised: no kill check is reached
            answers = self.core.fail(batch, "execute-error:X", self.now)
            self.record(answers, {
                r.request_id: (FAILED, "execute-error:X") for r in batch.requests
            })
        elif batch.kill is not None:  # after-run
            self.die(batch)
        else:
            answers = self.core.complete(batch, self.now)
            self.record(answers, {
                r.request_id: (COMPLETED, "") for r in batch.requests
            })

    def die(self, batch):
        self.alive[batch.worker] = False
        answers = self.core.worker_died(batch, self.now)
        expected, survivors = {}, []
        for r in batch.requests:
            if self.attempts[r.request_id] > self.max_retries:
                expected[r.request_id] = (FAILED, WORKER_DIED)
            else:
                survivors.append(r)
        if any(self.alive):
            self.queues[batch.model].extendleft(reversed(survivors))
        else:
            # The last worker died: everything pending ends no-workers.
            pending = survivors + [r for q in self.queues.values() for r in q]
            for q in self.queues.values():
                q.clear()
            expected.update({r.request_id: (FAILED, NO_WORKERS) for r in pending})
            assert self.core.pending == 0
        self.record(answers, expected)

    def drain(self):
        self.core.drain()
        self.draining = True

    def finish(self):
        """Drain and run everything to its end; every admitted id must
        then hold exactly one terminal."""
        self.drain()
        for _ in range(1000):
            if self.in_flight:
                self.settle(0, failed=False)
            elif self.core.idle_workers() and self.core.pending:
                self.take(0)
            else:
                break
        assert self.core.pending == 0 and self.core.inflight == 0
        assert self.core.drained or self.core.live_workers == 0
        assert set(self.answered) == self.admitted
        assert self.core.ledger == {
            rid: status for rid, (status, _) in self.answered.items()
        }
        assert self.core.violations == 0


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=CONFIGS, ops=OPS)
def test_core_keeps_the_contract_under_any_interleaving(config, ops):
    harness = Harness(config)
    for op in ops:
        kind = op[0]
        if kind == "admit":
            harness.admit(*op[1:])
        elif kind == "take":
            harness.take(op[1])
        elif kind == "complete":
            harness.settle(op[1], failed=False)
        elif kind == "fail":
            harness.settle(op[1], failed=True)
        elif kind == "advance":
            harness.now += op[1]
        else:
            harness.drain()
    harness.finish()
