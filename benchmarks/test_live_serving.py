"""Wall-clock latency of the live socket serving front-end.

Boots an in-process :class:`repro.serving.server.ServingServer` on a
loopback TCP socket serving the demo zoo, pipelines a burst of requests
through the real protocol client, and appends one trajectory row to
``benchmarks/results/serve_throughput.json`` with the observed
requests/sec and exact nearest-rank latency percentiles (p50/p95/p99,
from the per-request ``latency_ms`` the server reports — arrival to
terminal response, including queueing).

Deliberately **ungated**: wall-clock latency through a socket is
load-sensitive, so this row records the trajectory without a flaky
speedup threshold.  Correctness is still asserted hard — every request
completes and every completed digest is bit-identical to the per-image
functional oracle.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

from repro.experiments.serve_live import SoakConfig, oracle_digests
from repro.serving.client import ServingClient
from repro.serving.pool import SessionPool
from repro.serving.server import ServingServer, demo_definitions
from repro.serving.stats import LatencyRecorder

SEED = 2021
REQUESTS = 32
IMAGES = 4
TRAJECTORY = "serve_throughput.json"


def test_bench_live_socket_latency(one_shot, append_trajectory):
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

        wall_start = time.perf_counter()
        responses = one_shot(serve)
        wall_seconds = time.perf_counter() - wall_start

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

    append_trajectory(
        TRAJECTORY,
        {
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "workload": (
                f"live-socket demo zoo requests={REQUESTS} batch_cap=4 "
                "workers=2"
            ),
            "wall_seconds": round(wall_seconds, 4),
            "requests_per_sec": round(REQUESTS / wall_seconds, 3),
            "p50_latency_ms": round(summary["p50_latency_us"] / 1000.0, 3),
            "p95_latency_ms": round(summary["p95_latency_us"] / 1000.0, 3),
            "p99_latency_ms": round(summary["p99_latency_us"] / 1000.0, 3),
            "max_latency_ms": round(summary["max_latency_us"] / 1000.0, 3),
        }
    )
    assert summary["latency_count"] == REQUESTS
    assert summary["p50_latency_us"] <= summary["p99_latency_us"]
