"""Wall-clock latency of the live socket serving front-end.

Boots an in-process :class:`repro.serving.server.ServingServer` on a
loopback TCP socket serving the demo zoo, pipelines a burst of requests
through the real protocol client, and checks the exact nearest-rank
latency percentiles (p50/p99, from the per-request ``latency_ms`` the
server reports — arrival to terminal response, including queueing).

Deliberately **ungated** on speed: wall-clock latency through a socket
is load-sensitive, so there is no flaky speedup threshold.  Correctness
is still asserted hard — every request completes and every completed
digest is bit-identical to the per-image functional oracle.
"""

from __future__ import annotations

from repro.experiments.serve_live import SoakConfig, oracle_digests
from repro.serving.client import ServingClient
from repro.serving.pool import SessionPool
from repro.serving.server import ServingServer, demo_definitions
from repro.serving.stats import LatencyRecorder

SEED = 2021
REQUESTS = 32
IMAGES = 4


def test_bench_live_socket_latency(one_shot):
    definitions = demo_definitions()
    models = tuple(definitions)
    oracle = oracle_digests(SoakConfig(seed=SEED, images=IMAGES))
    pool = SessionPool(seed=SEED, definitions=definitions)
    server = ServingServer(
        pool,
        address=("127.0.0.1", 0),
        models=models,
        batch_cap=4,
        deadline_ms=10.0,
        queue_depth=REQUESTS,  # the whole burst fits: no shed rejections
        workers=2,
    )
    server.start(warm=True)  # compile + warm outside the timed region
    client = ServingClient(server.address, client="bench")
    try:
        def serve():
            request_ids = []
            for number in range(REQUESTS):
                rid = f"bench-{number}"
                client.send_request(
                    rid, models[number % len(models)], number % IMAGES
                )
                request_ids.append(rid)
            return client.collect(request_ids)

        responses = one_shot(serve)

        assert len(responses) == REQUESTS
        recorder = LatencyRecorder()
        for response in responses.values():
            assert response["status"] == "completed", response
            key = (response["model"], response["image"])
            assert response["digest"] == oracle[key], response["id"]
            recorder.record(float(response["latency_ms"]) * 1000.0)
        summary = recorder.summary()
    finally:
        client.close()
        server.shutdown()

    assert summary["latency_count"] == REQUESTS
    assert summary["p50_latency_us"] <= summary["p99_latency_us"]
