"""Workload ``sweep-paper``: the experiments runner CLI, cold and cached.

``python -m repro.experiments.runner --quick --jobs 2 --cache`` over nine
paper experiments on four GPU presets (36 tasks).  A cycle is one cold
run into a fresh cache directory followed by fully cached re-runs; cycles
repeat until ``--seconds`` have been measured.  Cold runs exercise the
plan executor, the journal and the statistics/cost-model paths sessions
never call; cached re-runs measure what a user waits for when nothing
changed (start-up, imports, cache reads).

The sweep's inputs are the paper's fixed experiment grids, so the seed
changes nothing here.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading

import tracing
from common import (
    ROOT, child_env, children_peak_rss_mb, now, slug, write_json,
)
from repro.serving.stats import exact_percentile

EXPERIMENTS = (
    "table2", "table3", "table4", "fig5", "fig6", "fig19", "fig21", "fig22",
    "spconv",
)
GPUS = ("v100", "a100", "t4", "jetson-xavier")
JOBS = 2
CACHED_RERUNS = 10
SETUP_REPS = 5
IMPORT_REPS = 5
GOLDEN = ROOT / "tests" / "experiments" / "golden"
SMOKE_EXPERIMENTS = ("table4", "fig6")
SMOKE_GPUS = ("v100",)


def _runner(args, timeout_s=170.0):
    """One runner invocation; returns ``(wall_s, completed process)``."""
    started = now()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *args],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout_s,
    )
    return now() - started, proc


def _golden_case(experiment: str, gpu: str) -> "str":
    return experiment if gpu == "v100" else f"{experiment}@{gpu}"


class JournalTail:
    """Stamps each journal line with the time this process first saw it."""

    def __init__(self, path) -> None:
        self.path = path
        self.stamped: "list[tuple[float, dict]]" = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="journal-tail")
        self._thread.start()

    def _poll(self) -> None:
        offset = 0
        buffer = b""
        while True:
            stopping = self._stop.is_set()
            try:
                with open(self.path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except FileNotFoundError:
                chunk = b""
            seen = now()
            offset += len(chunk)
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            self.stamped.extend((seen, json.loads(line)) for line in lines)
            if stopping:
                return
            self._stop.wait(0.01)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def run(ctx) -> dict:
    from repro.runtime.cache import ResultCache
    from repro.runtime.journal import read_events

    experiments = SMOKE_EXPERIMENTS if ctx.smoke else EXPERIMENTS
    gpus = SMOKE_GPUS if ctx.smoke else GPUS
    tasks = [(e, g) for e in experiments for g in gpus]
    base = ["--quick", "--jobs", str(JOBS), "--cache", *experiments]
    for gpu in gpus:
        base += ["--gpu", gpu]
    rundir = ctx.rundir
    checks = []
    counts = {"retries": 0, "failed": 0}
    result = {"checks": checks, "attempted": 0, "failed": 0}

    setups = []
    for _ in range(1 if ctx.smoke else SETUP_REPS):
        wall, proc = _runner(base + ["--cache-dir", str(rundir / "dry"), "--dry-run"])
        checks.append(("dry-run-exit-0", proc.returncode == 0))
        setups.append(wall)
    imports = []
    for _ in range(1 if ctx.smoke else IMPORT_REPS):
        started = now()
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.runner"],
            cwd=ROOT, env=child_env(), check=True, timeout=60,
        )
        imports.append(now() - started)

    def cold(cycle, tail=False):
        cache = rundir / f"cache{cycle}"
        journal = rundir / f"journal{cycle}-cold.jsonl"
        tailer = JournalTail(journal) if tail else None
        try:
            wall, proc = _runner(
                base + ["--cache-dir", str(cache), "--journal", str(journal)]
            )
        finally:
            if tailer is not None:
                tailer.close()
        checks.append(("cold-exit-0", proc.returncode == 0))
        events = read_events(journal)
        result["attempted"] += len(tasks)
        return wall, proc, cache, events, tailer

    cold_walls, cached_walls, task_sums, journal_events, hits = [], [], [], [], []
    per_experiment = {e: [] for e in experiments}
    cycle = 0
    while cycle == 0 or sum(cold_walls) + sum(cached_walls) < ctx.seconds:
        wall, proc, cache, events, _ = cold(cycle)
        cold_walls.append(wall)
        journal_events.append(len(events))
        durations = {e: 0.0 for e in experiments}
        store = ResultCache(cache)
        for event in events:
            kind = event["event"]
            counts["retries"] += kind == "task_retried"
            counts["failed"] += kind in ("task_failed", "task_quarantined")
            if kind != "task_completed":
                continue
            experiment, gpu = tasks[event["index"]]
            durations[experiment] += event["duration_s"]
            golden = GOLDEN / f"{_golden_case(experiment, gpu)}.json"
            if golden.exists():
                rows = store.load(event["key"])
                checks.append((
                    f"golden:{_golden_case(experiment, gpu)}",
                    rows == json.loads(golden.read_text(encoding="utf-8")),
                ))
        task_sums.append(sum(durations.values()))
        for experiment, seconds in durations.items():
            per_experiment[experiment].append(seconds)
        for rerun in range(2 if ctx.smoke else CACHED_RERUNS):
            journal = rundir / f"journal{cycle}-cached{rerun}.jsonl"
            cached_wall, cached = _runner(
                base + ["--cache-dir", str(cache), "--journal", str(journal)]
            )
            cached_walls.append(cached_wall)
            checks.append((
                "cached-stdout-identical",
                cached.returncode == 0 and cached.stdout == proc.stdout,
            ))
            cached_events = read_events(journal)
            hits.append(sum(e["event"] == "task_skipped" for e in cached_events))
            result["attempted"] += len(tasks)
        cycle += 1
    peak_rss_mb = children_peak_rss_mb()

    sweep_s = statistics.median(cold_walls)
    cold_ms = [w * 1e3 for w in cold_walls]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(tasks) / sweep_s,
        "latency_p50_ms": exact_percentile(cold_ms, 50),
        "peak_rss_mb": peak_rss_mb,
        "runtime.sweep_s": sweep_s,
        "runtime.sweep_cached_s": statistics.median(cached_walls),
        "runtime.task_s_sum": statistics.median(task_sums),
        "runtime.parallel_efficiency": statistics.median(task_sums) / (JOBS * sweep_s),
        "runtime.import_s": statistics.median(imports),
        "runtime.cache_hits": statistics.median(hits),
        "runtime.retries": counts["retries"],
        "runtime.failed": counts["failed"],
        "runtime.journal_events": statistics.median(journal_events),
    }
    for experiment, seconds in per_experiment.items():
        metrics[f"runtime.task_s.{slug(experiment)}"] = statistics.median(seconds)
    result["failed"] = counts["failed"]
    result["latency_samples"] = len(cold_walls)

    if ctx.trace:
        wall, _, _, _, tailer = cold("traced", tail=True)
        metrics["trace.overhead"] = 1.0 - sweep_s / wall
        recorder = tracing.SpanRecorder()
        starts = {}
        for seen, event in tailer.stamped:
            if event["event"] == "task_started":
                starts[event["index"]] = seen
            elif event["event"] == "task_completed":
                experiment, gpu = tasks[event["index"]]
                recorder.record(
                    "runtime.task", starts[event["index"]], seen,
                    experiment=experiment, gpu=gpu,
                    duration_s=event["duration_s"],
                )
        tracing.write_spans(rundir / "spans.jsonl", recorder.spans)
    result["metrics"] = metrics
    write_json(rundir / "samples.json", {"cold": cold_walls, "cached": cached_walls})
    return result
