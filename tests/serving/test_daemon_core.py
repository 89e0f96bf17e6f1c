"""Unit coverage of the daemon's building blocks.

The fault/property suites drive the assembled daemon; these tests pin
the pieces in isolation — clock monotonicity, queue flush/admission
semantics, seeded arrival schedules, and the session pool.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving import (
    BatchQueue,
    FLUSH_DEADLINE,
    FLUSH_FULL,
    FaultPlan,
    Request,
    ServingDaemon,
    SessionPool,
    VirtualClock,
    WorkerKill,
    poisson_arrivals,
)


class TestVirtualClock:
    def test_advances_and_reads(self):
        clock = VirtualClock()
        assert clock.now_us == 0.0
        clock.advance_to(10.5)
        clock.advance(2.0)
        assert clock.now_us == 12.5

    def test_rewind_fails_loudly(self):
        clock = VirtualClock(start_us=100.0)
        with pytest.raises(ConfigError):
            clock.advance_to(99.9)
        with pytest.raises(ConfigError):
            clock.advance(-1.0)


class TestBatchQueue:
    def make(self, cap=3, deadline=100.0, depth=5):
        return BatchQueue("m", cap, deadline, depth)

    def request(self, rid, at):
        return Request(rid, "m", 0, arrival_us=at)

    def test_flushes_full_before_deadline(self):
        queue = self.make()
        for i in range(3):
            assert queue.offer(self.request(f"q{i}", 0.0))
        assert queue.due_cause(1.0, queue.batch_cap) == FLUSH_FULL
        assert len(queue.take_batch(queue.batch_cap)) == 3
        assert queue.due_cause(1.0, queue.batch_cap) is None

    def test_deadline_makes_partial_batch_due(self):
        queue = self.make()
        queue.offer(self.request("q0", 10.0))
        assert queue.due_cause(109.9, queue.batch_cap) is None
        assert queue.head_deadline_us() == 110.0
        assert queue.due_cause(110.0, queue.batch_cap) == FLUSH_DEADLINE

    def test_depth_bound_refuses_and_requeue_bypasses_it(self):
        queue = self.make(cap=2, depth=2)
        assert queue.offer(self.request("q0", 0.0))
        assert queue.offer(self.request("q1", 0.0))
        assert not queue.offer(self.request("q2", 0.0))
        batch = queue.take_batch(queue.batch_cap)
        # A retried batch was already admitted once: it re-enters at the
        # front even when new arrivals have refilled the queue.
        queue.offer(self.request("q3", 1.0))
        queue.requeue_front(batch)
        assert [r.request_id for r in queue.take_batch(len(queue))] == [
            "q0", "q1", "q3",
        ]

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            self.make(cap=0)
        with pytest.raises(ConfigError):
            self.make(deadline=0.0)
        with pytest.raises(ConfigError):
            self.make(cap=4, depth=3)


class TestArrivals:
    def test_schedule_is_a_pure_function_of_its_seed(self):
        kwargs = dict(models=["A", "B"], count=20, mean_gap_us=100.0, seed=9)
        assert poisson_arrivals(**kwargs) == poisson_arrivals(**kwargs)
        assert poisson_arrivals(**kwargs) != poisson_arrivals(
            **{**kwargs, "seed": 10}
        )

    def test_schedule_shape(self):
        requests = poisson_arrivals(
            ["A"], count=10, mean_gap_us=50.0, seed=1, image_pool=3
        )
        assert len(requests) == 10
        assert len({r.request_id for r in requests}) == 10
        times = [r.arrival_us for r in requests]
        assert times == sorted(times)
        assert all(0 <= r.image < 3 for r in requests)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            poisson_arrivals([], count=1, mean_gap_us=1.0)
        with pytest.raises(ConfigError):
            poisson_arrivals(["A"], count=0, mean_gap_us=1.0)
        with pytest.raises(ConfigError):
            poisson_arrivals(["A"], count=1, mean_gap_us=0.0)


class TestSessionPool:
    def test_sessions_compiled_once_and_reused(self, definitions):
        pool = SessionPool(seed=2021, definitions=definitions)
        first = pool.session("Tiny-GEMM")
        assert pool.session("Tiny-GEMM") is first
        assert pool.compiled_models == ("Tiny-GEMM",)

    def test_scale_resolution_prefers_explicit_then_metadata(self, definitions):
        assert SessionPool(definitions=definitions).scale_for("Tiny-CNN") == 1.0
        assert SessionPool(
            scale=0.5, definitions=definitions
        ).scale_for("Tiny-CNN") == 0.5
        # Zoo names resolve through the benchmark metadata.
        assert SessionPool().scale_for("Mask R-CNN") == 0.25
        assert SessionPool().scale_for("ResNet-18") == 1.0


class TestDaemonValidation:
    def test_bad_geometry_rejected_eagerly(self, pool):
        with pytest.raises(ConfigError):
            ServingDaemon(pool, workers=0)
        with pytest.raises(ConfigError):
            ServingDaemon(pool, max_retries=-1)
        with pytest.raises(ConfigError):
            ServingDaemon(pool, batch_overhead_us=-1.0)
        with pytest.raises(ConfigError):
            ServingDaemon(pool, batch_cap=4, queue_depth=2)

    def test_kill_for_missing_worker_rejected_eagerly(self, pool):
        with pytest.raises(ConfigError, match="only 1 exist"):
            ServingDaemon(
                pool, batch_cap=1, deadline_us=100.0, queue_depth=4,
                workers=1, faults=FaultPlan((WorkerKill(5, 1),)),
            )

    def test_empty_schedule_yields_empty_report(self, pool):
        report = ServingDaemon(pool).run(())
        assert report.responses == ()
        assert report.batches == ()
        assert report.makespan_us == 0.0
        assert report.images_per_sec() == 0.0
