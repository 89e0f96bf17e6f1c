"""Served workloads: ``serve-demo`` and ``serve-resnet18``.

The server is started through its CLI with the deployment flags spelled
out (``common.SERVER_FLAGS``) and driven over the wire protocol by this
one process with two connections: one carries requests, the other
``health`` probes.  Every request carries a fresh image id, so every
request is a new input.

* ``serve-demo``: the two demo models compute in well under a
  millisecond, so time goes to framing, admission, batching, digests and
  delivery.  Phase 1 is an open-loop Poisson stream (latency, timed from
  each request's due time); phase 2 a closed loop of 16 outstanding
  requests (throughput).
* ``serve-resnet18``: ResNet-18 at full resolution, every layer on the
  blocked engine; a closed loop of 8 outstanding requests (2 workers x
  batch cap 4) gives throughput and latency.
"""

from __future__ import annotations

import itertools
import random
import statistics
import threading
import time

import tracing
from common import (
    PROGRAM_SEED,
    SERVER_FLAGS,
    Connection,
    Server,
    now,
    write_json,
)
from repro.serving.stats import exact_percentile

DEMO_MODELS = ("Demo-CNN", "Demo-GEMM")
OPEN_LOOP_RATE = 200.0
DEMO_OUTSTANDING = 16
RESNET_OUTSTANDING = 8
DEMO_VERIFY_EVERY = 50
RESNET_VERIFY = 4
SETUP_REPS = 3
#: Health-frame counters read before and after the timed phases.
COUNTERS = (
    "batches", "refused", "rejected_deadline", "retries", "undeliverable",
    "protocol_errors",
)


class Load:
    """Requests with fresh image ids from the benchmark seed.

    Models alternate, so the seed changes the inputs and the arrival
    schedule but not the per-model mix the batching queues see.
    """

    def __init__(self, seed: int, models) -> None:
        self.rng = random.Random(seed)
        self.models = itertools.cycle(models)
        self.next_image = seed * 1_000_000

    def request(self) -> "tuple[dict, dict]":
        from repro.serving.protocol import make_request

        model = next(self.models)
        image = self.next_image
        self.next_image += 1
        record = {"id": f"r{image}", "model": model, "image": image}
        return make_request(record["id"], model, image), record


def health(conn: Connection) -> dict:
    from repro.serving.protocol import HEALTH_ACK, make_health

    conn.send(make_health())
    while True:
        frame = conn.recv()
        if frame["type"] == HEALTH_ACK:
            return frame


def closed_loop(conn, load, outstanding, seconds):
    """Keep ``outstanding`` requests in flight for ``seconds``.

    Requests in flight at the end are answered before it returns, so
    ``seconds=0`` sends exactly one wave of ``outstanding`` requests.
    """
    records = {}
    sent = 0
    start = now()
    end = start + seconds

    def send_one():
        nonlocal sent
        message, record = load.request()
        record["sent"] = now()
        records[record["id"]] = record
        conn.send(message)
        sent += 1

    for _ in range(outstanding):
        send_one()
    answered = 0
    while answered < sent:
        frame = conn.recv()
        received = now()
        record = records[frame["id"]]
        record["recv"], record["frame"] = received, frame
        answered += 1
        if received < end:
            send_one()
    return list(records.values()), start, end


def open_loop(conn, load, rate, seconds):
    """Poisson arrivals at ``rate``/s for ``seconds``, sent when due."""
    offsets = []
    t = load.rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += load.rng.expovariate(rate)
    pending = [load.request() for _ in offsets]
    by_id = {record["id"]: record for _, record in pending}
    failure = []

    def receive():
        try:
            for _ in pending:
                frame = conn.recv()
                record = by_id[frame["id"]]
                record["recv"], record["frame"] = now(), frame
        except OSError as error:  # includes the server closing the socket
            failure.append(error)

    receiver = threading.Thread(target=receive, name="bench-recv")
    receiver.start()
    start = now() + 0.01
    try:
        for offset, (message, record) in zip(offsets, pending):
            record["due"] = start + offset
            delay = record["due"] - now()
            if delay > 0:
                time.sleep(delay)
            record["sent"] = now()
            conn.send(message)
    finally:
        receiver.join(seconds + 120.0)
    if receiver.is_alive() or failure:
        raise RuntimeError(f"open-loop receiver failed: {failure}")
    return [record for _, record in pending]


def _completed(records):
    return [r for r in records if r.get("frame", {}).get("status") == "completed"]


def _ms(records, since):
    return [(r["recv"] - r[since]) * 1e3 for r in _completed(records)]


def _batch_mix(records):
    """Batches and full-flush batches, from per-request frames.

    Each completed request carries its batch's size, so weighting every
    request by 1/size counts every batch exactly once.
    """
    batches = full = 0.0
    for record in _completed(records):
        weight = 1.0 / record["frame"]["batch_size"]
        batches += weight
        if record["frame"]["flush_cause"] == "full":
            full += weight
    return batches, full


def _drive(server, demo, seed, seconds, smoke):
    """Warm up, then run the timed phases; returns the raw observations."""
    models = DEMO_MODELS if demo else ("ResNet-18",)
    outstanding = DEMO_OUTSTANDING if demo else RESNET_OUTSTANDING
    if smoke:
        outstanding //= 4
    load = Load(seed, models)
    conn = Connection(server.address, "bench-load")
    probe = Connection(server.address, "bench-health")
    try:
        if not smoke:
            closed_loop(conn, load, outstanding, seconds=0.0)
        before = health(probe)
        if demo:
            latency = open_loop(conn, load, OPEN_LOOP_RATE, 0.6 * seconds)
            throughput, start, end = closed_loop(
                conn, load, outstanding, seconds=0.4 * seconds
            )
        else:
            throughput, start, end = closed_loop(
                conn, load, outstanding, seconds=seconds
            )
            latency = throughput
        after = health(probe)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        conn.close()
        probe.close()
    # Completions inside the window over the time they took, so the rate
    # is measured rather than quantized by a fixed window length.
    finished = sorted(r["recv"] for r in _completed(throughput))
    done = [t for t in finished if t <= end] or finished
    timed = latency + throughput if demo else throughput
    return {
        "latency": latency,
        "throughput": throughput,
        "timed": timed,
        "throughput_per_s": len(done) / (done[-1] - start),
        "peak_rss_mb": peak_rss_mb,
        "health": {k: after[k] - before[k] for k in COUNTERS},
    }


def _serving_metrics(obs, demo):
    latency, throughput = obs["latency"], obs["throughput"]
    client_from = "due" if demo else "sent"
    client_ms = _ms(latency, client_from)
    server_ms = [r["frame"]["latency_ms"] for r in _completed(latency)]
    delivery = [
        (r["recv"] - r["sent"]) * 1e3 - r["frame"]["latency_ms"]
        for r in _completed(latency)
    ]
    lat_batches, lat_full = _batch_mix(latency)
    tput_batches, _ = _batch_mix(throughput)
    counters = obs["health"]
    metrics = {
        "throughput_per_s": obs["throughput_per_s"],
        "latency_p50_ms": exact_percentile(client_ms, 50),
        "peak_rss_mb": obs["peak_rss_mb"],
        "serving.client_latency_p99_ms": exact_percentile(client_ms, 99),
        "serving.server_latency_p50_ms": exact_percentile(server_ms, 50),
        "serving.server_latency_p95_ms": exact_percentile(server_ms, 95),
        "serving.delivery_p50_ms": exact_percentile(delivery, 50),
        "serving.flush_full_share": lat_full / lat_batches if lat_batches else 0.0,
        "serving.batch_size_mean": (
            len(_completed(throughput)) / tput_batches if tput_batches else 0.0
        ),
        "serving.batches": counters["batches"],
        "serving.rejected": counters["refused"] + counters["rejected_deadline"],
        "serving.retries": counters["retries"],
        "serving.undeliverable": counters["undeliverable"],
        "serving.protocol_errors": counters["protocol_errors"],
    }
    if demo:
        late = [(r["sent"] - r["due"]) * 1e3 for r in latency]
        metrics["serving.generator_late_p99_ms"] = exact_percentile(late, 99)
    return metrics


def _verify(obs, demo, seed, smoke):
    """Oracle digests of sampled completed responses (outside the timing)."""
    from repro.nn.functional import run_model_functional
    from repro.serving.protocol import functional_run_digest

    completed = _completed(obs["timed"])
    if demo:
        from repro.serving.server import demo_definitions

        definitions = demo_definitions()
        sample = completed[::DEMO_VERIFY_EVERY]
    else:
        definitions = {}
        sample = random.Random(seed).sample(
            completed, min(1 if smoke else RESNET_VERIFY, len(completed))
        )
    checks = []
    for record in sample:
        oracle = run_model_functional(
            definitions.get(record["model"], record["model"]),
            scale=1.0, seed=PROGRAM_SEED, image=record["image"],
            keep_outputs=True,
        )
        checks.append(
            functional_run_digest(oracle) == record["frame"]["digest"]
        )
    return checks


def _trace_metrics(obs, spans):
    """``serving.*``/``nn.*``/``core.*`` metrics of a traced server.

    A request's queue wait runs from its send to the start of the batch
    span holding its (model, image), which is unique per request.
    """
    sent = {(r["model"], r["image"]): r["sent"] for r in obs["timed"]}
    measured = {(r["model"], r["image"]) for r in obs["latency"]}

    def timed(span):
        return any((span.attrs["model"], i) in sent for i in span.attrs["images"])

    metrics, rows = tracing.session_metrics(spans, timed)
    waits = [
        (span.start - sent[(span.attrs["model"], image)]) * 1e3
        for span in spans
        if span.name == tracing.RUN
        for image in span.attrs["images"]
        if (span.attrs["model"], image) in measured
    ]
    digests = [s.duration for s in spans if s.name == tracing.DIGEST]
    metrics["serving.queue_wait_p50_ms"] = exact_percentile(waits, 50)
    metrics["serving.execute_ms_per_image"] = metrics["nn.run_ms_per_image"]
    metrics["serving.digest_ms_per_image"] = sum(digests) * 1e3 / len(digests)
    return metrics, rows


def run(ctx, demo: bool) -> dict:
    argv = ["--demo-zoo"] if demo else ["--models", "ResNet-18"]
    argv += ["--port", "0", *SERVER_FLAGS]
    log = ctx.rundir / "server.log"
    result = {"checks": []}

    def serve(spans_path=None, reps=1):
        setups = []
        for _ in range(reps - 1):
            extra = Server(argv, log)
            setups.append(extra.setup_s)
            result["checks"].append(("drain-exit-0", extra.stop() == 0))
        server = Server(argv, log, spans_path)
        setups.append(server.setup_s)
        try:
            obs = _drive(server, demo, ctx.seed, ctx.seconds, ctx.smoke)
        finally:
            result["checks"].append(("drain-exit-0", server.stop() == 0))
        obs["setups"] = setups
        return obs

    untraced = None
    if not (ctx.smoke and ctx.trace):
        untraced = serve(reps=1 if ctx.smoke else SETUP_REPS)
    traced = None
    if ctx.trace:
        spans_path = ctx.rundir / "server-spans.jsonl"
        traced = serve(spans_path)
    base = untraced or traced

    metrics = _serving_metrics(base, demo)
    metrics["setup_s"] = statistics.median(base["setups"])
    result["latency_samples"] = len(_completed(base["latency"]))
    result["attempted"] = len(base["timed"])
    result["failed"] = len(base["timed"]) - len(_completed(base["timed"]))
    result["checks"] += [
        ("oracle-digest", ok) for ok in _verify(base, demo, ctx.seed, ctx.smoke)
    ]
    if traced is not None:
        spans = tracing.read_spans(spans_path)
        trace_metrics, rows = _trace_metrics(traced, spans)
        metrics.update(trace_metrics)
        if untraced is not None:
            metrics["trace.overhead"] = 1.0 - (
                traced["throughput_per_s"] / untraced["throughput_per_s"]
            )
        tracing.write_layer_table(ctx.rundir / "layers.txt", rows)
        client = tracing.SpanRecorder()
        for record in traced["timed"]:
            if "recv" in record:
                client.record(
                    "client.request", record["sent"], record["recv"],
                    model=record["model"], image=record["image"],
                    status=record["frame"]["status"],
                )
        offset = max((s.id for s in spans), default=-1) + 1
        tracing.write_spans(ctx.rundir / "spans.jsonl", spans)
        tracing.write_spans(ctx.rundir / "spans.jsonl", client.spans, offset)
    result["metrics"] = metrics
    write_json(ctx.rundir / "samples.json", {
        phase: [
            [r.get("due", r["sent"]), r["sent"], r.get("recv"),
             r.get("frame", {}).get("latency_ms"),
             r.get("frame", {}).get("batch_size")]
            for r in base[phase]
        ]
        for phase in ("latency", "throughput")
    })
    return result
