"""Property suite: dynamic batching never changes results or breaks caps.

For *any* arrival schedule and any (batch cap, deadline, queue depth,
workers) configuration, the daemon must behave like a batching proxy in
front of the per-image functional oracle:

* every flushed batch respects the cap, and a partial batch can only
  have flushed because its deadline expired;
* every caller gets exactly one terminal response, and with healthy
  workers nothing ever *fails* — requests either complete or are
  explicitly rejected by admission control;
* every completed response is bit-identical to
  ``run_model_functional(model, ..., image=i, keep_outputs=True)`` —
  batching is invisible in the results, visible only in the latency.
"""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "conformance"))
from zoo_harness import assert_runs_equal, tiny_cnn, tiny_gemm  # noqa: E402

from repro.nn.functional import run_model_functional  # noqa: E402
from repro.serving import (  # noqa: E402
    COMPLETED,
    FLUSH_DEADLINE,
    FLUSH_FULL,
    REJECTED,
    Request,
    ServingDaemon,
    SessionPool,
)

SEED = 2021
DEFINITIONS = {"Tiny-CNN": tiny_cnn(), "Tiny-GEMM": tiny_gemm()}

#: One pool for the whole module: weights are encoded once and every
#: example reuses the compiled sessions, exactly like a real deployment.
POOL = SessionPool(seed=SEED, definitions=DEFINITIONS)

_ORACLES: dict = {}


def oracle(model: str, image: int):
    key = (model, image)
    if key not in _ORACLES:
        _ORACLES[key] = run_model_functional(
            DEFINITIONS[model], seed=SEED, image=image, keep_outputs=True
        )
    return _ORACLES[key]


# Arrival schedules: per-request (gap to previous arrival, image id,
# model pick).  Gaps of 0 produce same-instant bursts — the nastiest
# interleaving for a batcher.
SCHEDULES = st.lists(
    st.tuples(
        st.floats(
            min_value=0.0, max_value=2_000.0,
            allow_nan=False, allow_infinity=False,
        ),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(sorted(DEFINITIONS)),
    ),
    min_size=1,
    max_size=10,
)

CONFIGS = st.tuples(
    st.integers(min_value=1, max_value=5),       # batch_cap
    st.floats(min_value=50.0, max_value=3_000.0),  # deadline_us
    st.integers(min_value=0, max_value=8),       # extra queue depth
    st.integers(min_value=1, max_value=3),       # workers
)


def build_requests(schedule):
    now = 0.0
    requests = []
    for index, (gap, image, model) in enumerate(schedule):
        now += gap
        requests.append(
            Request(
                request_id=f"p{index:03d}", model=model, image=image,
                arrival_us=now,
            )
        )
    return tuple(requests)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=SCHEDULES, config=CONFIGS)
def test_daemon_equals_oracle_and_respects_caps(schedule, config):
    batch_cap, deadline_us, extra_depth, workers = config
    requests = build_requests(schedule)
    daemon = ServingDaemon(
        POOL,
        batch_cap=batch_cap,
        deadline_us=deadline_us,
        queue_depth=batch_cap + extra_depth,
        workers=workers,
    )
    report = daemon.run(requests)

    # Terminal-response totality: one answer per caller, nothing silent.
    assert len(report.responses) == len(requests)
    assert set(report.by_id()) == {r.request_id for r in requests}
    # Healthy workers: nothing fails; only admission control says no.
    assert report.failed == ()
    assert len(report.completed) + len(report.rejected) == len(requests)
    assert all(r.reason == "queue-full" for r in report.rejected)

    # Cap discipline: no flushed batch exceeds the cap, and a partial
    # batch can only flush on deadline expiry.
    for batch in report.batches:
        assert batch.completed  # no faults -> no interrupted dispatches
        assert 1 <= len(batch.images) <= batch_cap
        assert batch.flush_cause in (FLUSH_FULL, FLUSH_DEADLINE)
        if len(batch.images) < batch_cap:
            assert batch.flush_cause == FLUSH_DEADLINE

    # Batched results are bit-identical to the per-image oracle.
    for response in report.completed:
        assert response.status == COMPLETED
        assert response.latency_us >= 0.0
        assert_runs_equal(
            oracle(response.request.model, response.request.image),
            response.result,
        )

    # The stats layer saw exactly the completed requests.
    assert report.latency.count == len(report.completed)
    total_batched = sum(len(batch.images) for batch in report.batches)
    assert total_batched == len(report.completed)


@settings(max_examples=15, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=12),
    batch_cap=st.integers(min_value=1, max_value=4),
)
def test_saturated_queue_flushes_full_batches(count, batch_cap):
    """A same-instant burst with ample depth batches at exactly the cap
    (the final remainder batch flushes partial, on deadline)."""
    requests = tuple(
        Request(f"s{i:03d}", "Tiny-GEMM", i % 4, arrival_us=0.0)
        for i in range(count)
    )
    daemon = ServingDaemon(
        POOL, batch_cap=batch_cap, deadline_us=400.0,
        queue_depth=max(count, batch_cap), workers=1,
    )
    report = daemon.run(requests)
    assert report.rejected == () and report.failed == ()
    sizes = [len(batch.images) for batch in report.batches]
    assert sum(sizes) == count
    assert all(size == batch_cap for size in sizes[:-1])
    remainder = count % batch_cap
    assert sizes[-1] == (remainder if remainder else batch_cap)


def test_rejection_preserves_fifo_order_of_admitted():
    """Admitted requests complete in arrival order on one worker."""
    requests = tuple(
        Request(f"f{i:03d}", "Tiny-GEMM", i % 4, arrival_us=float(i))
        for i in range(9)
    )
    daemon = ServingDaemon(
        POOL, batch_cap=2, deadline_us=200.0, queue_depth=16, workers=1,
    )
    report = daemon.run(requests)
    completed_ids = [r.request.request_id for r in report.completed]
    assert completed_ids == sorted(completed_ids)


def test_saturated_model_does_not_starve_another():
    """A Tiny-GEMM request every 20 us keeps that queue full on one
    worker; a lone Tiny-CNN request must still be served once its head
    is the oldest, not after the whole Tiny-GEMM stream."""
    requests = tuple(
        Request(f"g{i:03d}", "Tiny-GEMM", i % 4, arrival_us=20.0 * i)
        for i in range(300)
    ) + (Request("cnn", "Tiny-CNN", 0, arrival_us=10.0),)
    daemon = ServingDaemon(POOL, batch_cap=2, deadline_us=100.0, workers=1)
    report = daemon.run(requests)
    served = report.by_id()["cnn"]
    assert served.status == COMPLETED
    assert served.latency_us <= 200.0
    gemm_done = [r for r in report.completed if r.request.model == "Tiny-GEMM"]
    assert sum(r.finish_us < served.finish_us for r in gemm_done) <= 4
