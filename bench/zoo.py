"""In-process workload ``batch-zoo``: compiled sessions of the whole zoo.

No sockets and no threads: ``compile_model`` at each model's
``benchmark_scale``, one warm ``run(1)`` per model, then timed rounds of
``run(BATCH)`` over every ``DEFAULT_MODELS`` entry with fresh image ids
until ``--seconds`` of session time has been measured.  It is the only
workload that covers the GEMM models (BERT, RNN) and VGG-16.
"""

from __future__ import annotations

import itertools
import statistics

import tracing
from common import (
    PROGRAM_SEED, now, self_peak_rss_mb, slug, write_json,
)
from repro.serving.stats import exact_percentile

BATCH = 2
SETUP_REPS = 3
SMOKE_SCALE = 0.125
#: A smoke run's models: one conv and one GEMM model with cheap compiles.
SMOKE_MODELS = ("ResNet-18", "BERT-base Encoder")


def _round(sessions, images, batch, on_run=None):
    """One timed ``run(batch)`` per model; returns ``[(model, seconds)]``."""
    calls = []
    for model, session in sessions.items():
        ids = [next(images) for _ in range(batch)]
        started = now()
        run = session.run(ids)
        calls.append((model, now() - started))
        if on_run is not None:
            on_run(model, run)
        del run  # outputs are large; never hold two batches at once
    return calls


def _seconds(calls) -> float:
    return sum(seconds for _, seconds in calls)


def run(ctx) -> dict:
    from repro.nn.functional import run_model_functional
    from repro.nn.models import DEFAULT_MODELS, get_benchmark_scale
    from repro.nn.session import compile_model
    from repro.nn.synthetic import clear_operand_memo

    models = SMOKE_MODELS if ctx.smoke else DEFAULT_MODELS
    scales = {
        m: min(get_benchmark_scale(m), SMOKE_SCALE) if ctx.smoke
        else get_benchmark_scale(m)
        for m in models
    }
    batch = 1 if ctx.smoke else BATCH
    setups = []
    sessions = None
    for _ in range(1 if ctx.smoke else SETUP_REPS):
        sessions = None
        clear_operand_memo()
        started = now()
        sessions = {
            m: compile_model(m, scale=scales[m], seed=PROGRAM_SEED)
            for m in models
        }
        setups.append(now() - started)
    images = itertools.count(ctx.seed * 1_000_000)  # fresh image ids
    if not ctx.smoke:
        for session in sessions.values():
            session.run([next(images)])

    metrics = {"setup_s": statistics.median(setups)}
    to_verify = {}

    def first_round(model, run):
        from repro.serving.protocol import functional_run_digest

        metrics[f"sim.ohmma_issued.{slug(model)}"] = run.ohmma_issued
        metrics[f"sim.instruction_speedup.{slug(model)}"] = run.instruction_speedup
        to_verify[model] = (run.images[0], functional_run_digest(run.per_image[0]))

    # Whole rounds until three quarters of the time are measured, so the
    # round count does not flip on noise when a round takes about half.
    calls = []
    if not (ctx.smoke and ctx.trace):
        while not calls or _seconds(calls) < 0.75 * ctx.seconds:
            calls += _round(sessions, images, batch, None if calls else first_round)
    peak_rss_mb = self_peak_rss_mb()
    if ctx.trace:
        # Untraced and traced rounds alternate, so drift between them
        # cancels in the overhead.
        recorder = tracing.SpanRecorder()
        plain, spanned = [], []
        while not spanned or _seconds(spanned) < 0.75 * ctx.seconds:
            plain += _round(
                sessions, images, batch, None if calls or plain else first_round
            )
            uninstall = tracing.install(recorder)
            try:
                spanned += _round(sessions, images, batch)
            finally:
                uninstall()
        metrics["trace.overhead"] = 1.0 - _seconds(plain) / _seconds(spanned)
        trace_metrics, rows = tracing.session_metrics(recorder.spans)
        metrics.update(trace_metrics)
        tracing.write_layer_table(ctx.rundir / "layers.txt", rows)
        tracing.write_spans(ctx.rundir / "spans.jsonl", recorder.spans)
        if not calls:
            calls, peak_rss_mb = plain, self_peak_rss_mb()

    call_ms = [seconds * 1e3 for _, seconds in calls]
    metrics.update({
        "throughput_per_s": len(calls) * batch / _seconds(calls),
        "latency_p50_ms": exact_percentile(call_ms, 50),
        "peak_rss_mb": peak_rss_mb,
    })
    result = {
        "checks": [], "attempted": len(calls) * batch, "failed": 0,
        "latency_samples": len(calls),
    }

    from repro.serving.protocol import functional_run_digest

    for model, (image, digest) in to_verify.items():
        oracle = run_model_functional(
            model, scale=scales[model], seed=PROGRAM_SEED, image=image,
            keep_outputs=True,
        )
        result["checks"].append(
            (f"oracle-digest:{slug(model)}", functional_run_digest(oracle) == digest)
        )
    result["metrics"] = metrics
    write_json(ctx.rundir / "samples.json", {"calls": calls})
    return result
