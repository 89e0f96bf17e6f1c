"""Deterministic fault harness for the serving daemon.

Every scenario here is *scheduled*, not raced: worker deaths are fixed
batch positions, and arrival bursts and deadline gaps are fixed points
on the virtual timeline, so a crash interleaving replays
bit-identically on every run.  The harness
asserts the daemon's terminal-response contract under each fault:

* no request is ever silently dropped — every arrival has exactly one
  terminal response;
* every terminal state is explicit (``completed`` / ``rejected`` /
  ``failed`` with a reason);
* survivors' outputs stay bit-identical to the per-image functional
  oracle, whatever the interleaving.
"""

from __future__ import annotations

import numpy as np

from repro.serving import (
    COMPLETED,
    FAILED,
    REJECTED,
    FaultPlan,
    Request,
    ServingDaemon,
    WorkerKill,
)


def burst(model: str, count: int, at_us: float = 0.0, start: int = 0):
    """``count`` same-instant requests (admission processed in id order)."""
    return tuple(
        Request(
            request_id=f"b{start + i:03d}", model=model, image=i % 4,
            arrival_us=at_us,
        )
        for i in range(count)
    )


def assert_all_terminal(report, requests):
    """Exactly one terminal response per distinct caller, none silent."""
    by_id = report.by_id()
    assert set(by_id) == {r.request_id for r in requests}
    assert len(report.responses) == len(requests)  # duplicates answered too
    for response in report.responses:
        assert response.status in (COMPLETED, REJECTED, FAILED)
        if response.status != COMPLETED:
            assert response.reason, response


def assert_survivors_match_oracle(report, oracle, runs_equal):
    for response in report.completed:
        runs_equal(
            oracle(response.request.model, response.request.image),
            response.result,
        )


class TestWorkerDeathMidBatch:
    def test_batch_retried_on_surviving_worker(self, pool, oracle, runs_equal):
        # Both requests arrive at t=0; cap 2 flushes immediately on
        # worker 0, which computes the batch and dies at its completion
        # event, before delivering anything.
        requests = burst("Tiny-GEMM", 2)
        daemon = ServingDaemon(
            pool, batch_cap=2, deadline_us=500.0, queue_depth=8, workers=2,
            faults=FaultPlan(worker_kills=(WorkerKill(0, 1, "after-run"),)),
        )
        report = daemon.run(requests)
        assert_all_terminal(report, requests)
        assert len(report.failed) == 0 and len(report.rejected) == 0
        assert len(report.completed) == 2
        # The interrupted dispatch is on record, un-completed.
        interrupted = [b for b in report.batches if not b.completed]
        assert [b.worker for b in interrupted] == [0]
        # The retry ran on the survivor, counted as a second attempt.
        for response in report.completed:
            assert response.worker == 1
            assert response.attempts == 2
        assert_survivors_match_oracle(report, oracle, runs_equal)

    def test_before_run_kill_never_executes_the_batch(self, pool, oracle,
                                                       runs_equal):
        requests = burst("Tiny-GEMM", 2)
        daemon = ServingDaemon(
            pool, batch_cap=2, deadline_us=500.0, queue_depth=8, workers=2,
            faults=FaultPlan(worker_kills=(WorkerKill(0, 1, "before-run"),)),
        )
        report = daemon.run(requests)
        assert_all_terminal(report, requests)
        interrupted, served = report.batches
        assert (interrupted.worker, interrupted.completed) == (0, False)
        assert interrupted.service_us == 0.0  # it never ran
        # The survivor takes the requeued pair at the same instant.
        assert (served.worker, served.dispatch_us) == (1, 0.0)
        assert [r.attempts for r in report.completed] == [2, 2]
        assert_survivors_match_oracle(report, oracle, runs_equal)

    def test_killed_worker_never_serves_again(self, pool):
        requests = burst("Tiny-GEMM", 8) + burst(
            "Tiny-GEMM", 4, at_us=2_000.0, start=8
        )
        daemon = ServingDaemon(
            pool, batch_cap=2, deadline_us=500.0, queue_depth=16, workers=2,
            faults=FaultPlan(worker_kills=(WorkerKill(0, 1, "after-run"),)),
        )
        report = daemon.run(requests)
        assert len(report.completed) == 12
        (interrupted,) = [b for b in report.batches if not b.completed]
        died_at = interrupted.dispatch_us + interrupted.service_us
        later = [b for b in report.batches if b.dispatch_us >= died_at]
        assert later and all(batch.worker == 1 for batch in later)

    def test_last_worker_death_fails_terminally(self, pool):
        # One worker, killed mid-batch, with retries allowed: the
        # in-flight pair would be requeued but no capacity remains, so
        # every admitted request gets a terminal *failed* answer at the
        # death, and a later arrival is refused outright.
        requests = burst("Tiny-GEMM", 3) + (
            Request("late", "Tiny-GEMM", 0, arrival_us=1_000.0),
        )
        daemon = ServingDaemon(
            pool, batch_cap=2, deadline_us=500.0, queue_depth=8, workers=1,
            faults=FaultPlan(worker_kills=(WorkerKill(0, 1, "after-run"),)),
            max_retries=1,
        )
        report = daemon.run(requests)
        assert_all_terminal(report, requests)
        assert len(report.completed) == 0
        assert len(report.failed) == 3
        assert {r.reason for r in report.failed} == {"no-workers"}
        (interrupted,) = report.batches
        died_at = interrupted.dispatch_us + interrupted.service_us
        assert {r.finish_us for r in report.failed} == {died_at}
        late = report.by_id()["late"]
        assert (late.status, late.reason) == (REJECTED, "no-workers")

    def test_retry_budget_exhausted_fails_with_worker_died(self, pool):
        requests = burst("Tiny-GEMM", 2)
        daemon = ServingDaemon(
            pool, batch_cap=2, deadline_us=500.0, queue_depth=8, workers=1,
            faults=FaultPlan(worker_kills=(WorkerKill(0, 1, "after-run"),)),
            max_retries=0,
        )
        report = daemon.run(requests)
        assert_all_terminal(report, requests)
        assert {r.reason for r in report.failed} == {"worker-died"}
        assert all(r.attempts == 1 for r in report.failed)


class TestDeadlineExpiry:
    def test_partial_queue_flushes_on_deadline(self, pool, oracle, runs_equal):
        # Two lone requests, far apart, cap 4: neither batch ever fills,
        # so both must flush on deadline expiry with a partial batch.
        requests = (
            Request("d000", "Tiny-CNN", 0, arrival_us=0.0),
            Request("d001", "Tiny-CNN", 1, arrival_us=5_000.0),
        )
        daemon = ServingDaemon(
            pool, batch_cap=4, deadline_us=300.0, queue_depth=8, workers=1,
        )
        report = daemon.run(requests)
        assert_all_terminal(report, requests)
        assert len(report.completed) == 2
        for batch in report.batches:
            assert batch.completed
            assert batch.flush_cause == "deadline"
            assert len(batch.images) < 4
        # Flush happens at arrival + deadline, never earlier.
        assert report.batches[0].dispatch_us == 300.0
        assert report.batches[1].dispatch_us == 5_300.0
        assert_survivors_match_oracle(report, oracle, runs_equal)


class TestQueueOverflow:
    def test_overflow_rejected_explicitly(self, pool, oracle, runs_equal):
        # Burst of 12 at t=0 with cap 3 / depth 4 / one worker: 3 are
        # dispatched immediately, 4 wait, and the rest must be refused
        # at admission — not queued without bound, not dropped.
        requests = burst("Tiny-GEMM", 12)
        daemon = ServingDaemon(
            pool, batch_cap=3, deadline_us=500.0, queue_depth=4, workers=1,
        )
        report = daemon.run(requests)
        assert_all_terminal(report, requests)
        assert len(report.rejected) == 12 - 3 - 4
        assert {r.reason for r in report.rejected} == {"queue-full"}
        # Rejections are immediate: the caller hears back at arrival.
        for response in report.rejected:
            assert response.finish_us == response.request.arrival_us
        # Everyone admitted completes, bit-identical to the oracle.
        assert len(report.completed) == 7
        assert_survivors_match_oracle(report, oracle, runs_equal)


class TestDuplicateRequestIds:
    def test_duplicate_id_rejected_original_served(self, pool, oracle,
                                                   runs_equal):
        requests = (
            Request("dup", "Tiny-GEMM", 0, arrival_us=0.0),
            Request("dup", "Tiny-GEMM", 1, arrival_us=10.0),  # in-flight dup
            Request("ok", "Tiny-GEMM", 2, arrival_us=20.0),
            Request("dup", "Tiny-GEMM", 3, arrival_us=9_000.0),  # late dup
        )
        daemon = ServingDaemon(
            pool, batch_cap=2, deadline_us=300.0, queue_depth=8, workers=1,
        )
        report = daemon.run(requests)
        # Four callers, four terminal responses — but only two distinct
        # ids ever enter the queues.
        assert len(report.responses) == 4
        duplicates = [r for r in report.responses if r.reason == "duplicate"]
        assert len(duplicates) == 2
        assert all(r.status == REJECTED for r in duplicates)
        completed_ids = sorted(
            r.request.request_id for r in report.completed
        )
        assert completed_ids == ["dup", "ok"]
        # The *original* dup (image 0) is the one served.
        served_dup = next(
            r for r in report.completed if r.request.request_id == "dup"
        )
        assert served_dup.request.image == 0
        assert_survivors_match_oracle(report, oracle, runs_equal)

    def test_unknown_model_rejected_not_crashed(self, pool):
        requests = (
            Request("u0", "No-Such-Model", 0, arrival_us=0.0),
            Request("u1", "Tiny-GEMM", 0, arrival_us=1.0),
        )
        daemon = ServingDaemon(
            pool, batch_cap=1, deadline_us=100.0, queue_depth=4, workers=1,
        )
        report = daemon.run(requests)
        assert_all_terminal(report, requests)
        assert report.by_id()["u0"].reason == "unknown-model"
        assert report.by_id()["u1"].status == COMPLETED


class TestDeterministicReplay:
    def _scenario(self, pool):
        """One run of a scenario combining every fault at once."""
        requests = (
            burst("Tiny-GEMM", 6)                       # overflow pressure
            + (Request("b001", "Tiny-GEMM", 3, 40.0),)  # duplicate id
            + burst("Tiny-CNN", 3, at_us=80.0, start=100)
            + (Request("late", "Tiny-CNN", 1, 4_000.0),)  # deadline flush
        )
        daemon = ServingDaemon(
            pool, batch_cap=2, deadline_us=600.0, queue_depth=4, workers=2,
            faults=FaultPlan(worker_kills=(WorkerKill(1, 1, "after-run"),)),
        )
        return requests, daemon.run(requests)

    @staticmethod
    def _fingerprint(report):
        return (
            tuple(
                (
                    r.request.request_id, r.status, r.reason, r.finish_us,
                    r.latency_us, r.worker, r.batch_size, r.flush_cause,
                    r.attempts,
                )
                for r in report.responses
            ),
            report.batches,
            report.latency.samples,
            round(report.makespan_us, 9),
        )

    def test_three_consecutive_runs_identical(self, pool, oracle, runs_equal):
        """The acceptance replay: 3 runs, same fingerprint, same bits."""
        runs = [self._scenario(pool) for _ in range(3)]
        requests, first = runs[0]
        assert_all_terminal(first, requests)
        assert len(first.completed) > 0 and len(first.rejected) > 0
        fingerprints = {self._fingerprint(report) for _, report in runs}
        assert len(fingerprints) == 1
        # Outputs are bitwise-stable across replays, and correct.
        for _, report in runs[1:]:
            for a, b in zip(first.completed, report.completed):
                for la, lb in zip(a.result.layers, b.result.layers):
                    assert la.stats == lb.stats
                    assert np.array_equal(la.output, lb.output)
        assert_survivors_match_oracle(first, oracle, runs_equal)
