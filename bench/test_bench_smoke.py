"""Smoke test of the benchmark harness.

Checks that ``BENCHMARK.json`` is well formed, then runs every workload
once in ``--smoke --trace`` mode (about a second of measurement each, at
reduced sizes) and asserts that each one passed its verification and
printed every declared metric by name.  serve-demo and batch-zoo also run
untraced, the mode whose last line carries the end-to-end metrics.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: Per-layer metrics each workload must measure itself (not read 0 as
#: "layer not exercised").
MEASURED = {
    "serve-demo": (
        "serving.server_latency_p50_ms", "serving.queue_wait_p50_ms",
        "serving.generator_late_p99_ms", "nn.run_ms_per_image",
    ),
    "serve-resnet18": (
        "serving.batch_size_mean", "serving.execute_ms_per_image",
        "nn.run_ms_per_image.resnet-18", "core.blocked_calls_per_image",
    ),
    "batch-zoo": (
        "nn.other_share", "nn.run_ms_per_image.resnet-18",
        "core.host_ns_per_ohmma", "sim.ohmma_issued.resnet-18",
        "sim.instruction_speedup.bert-base-encoder", "trace.overhead",
    ),
    "sweep-paper": (
        "runtime.sweep_s", "runtime.task_s.table4", "runtime.cache_hits",
        "runtime.journal_events", "trace.overhead",
    ),
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_is_well_formed():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(MEASURED)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in metrics:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _smoke(tmp_path, invocations):
    """Run ``(trace, workloads)`` invocations side by side; their outputs.

    Each invocation still runs its workloads one after the other.
    """
    procs = [
        subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace),
             "--out", str(tmp_path),
             *(arg for workload in workloads for arg in ("--workload", workload))],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for trace, workloads in invocations
    ]
    try:
        outputs = [proc.communicate(timeout=170)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    for proc, output in zip(procs, outputs):
        assert proc.returncode == 0, output
    return outputs


def test_every_workload_verifies_and_prints_every_metric(tmp_path):
    spec = _spec()
    traced = (("serve-resnet18", "serve-demo"), ("batch-zoo", "sweep-paper"))
    # The untraced path is the one whose last line carries the end-to-end
    # metrics; one served and the in-process workload cover it.
    untraced = ("serve-demo", "batch-zoo")
    outputs = _smoke(
        tmp_path, [(1, pair) for pair in traced] + [(0, untraced)]
    )
    for pair, output in zip(traced, outputs):
        lines = output.strip().splitlines()
        last = json.loads(lines[-1])
        assert last["correct"] is True and last["failed"] == 0
        printed = {line.split()[0] for line in lines[:-1] if line.startswith("   ")}
        for workload in pair:
            result = json.loads(
                (tmp_path / f"{workload}-s0-trace-smoke" / "result.json").read_text()
            )
            assert result["correct"] and result["checks"] > 0, result["problems"]
            assert not set(MEASURED[workload]) & set(result["not_applicable"])
            for metric in spec["end_to_end"] + spec["per_layer"]:
                assert metric["name"] in result["metrics"]
                assert metric["name"] in printed
            for metric in spec["per_layer"]:
                assert f"{workload}:{metric['name']}" in last["metrics"]

    last = json.loads(outputs[-1].strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {
        f"{workload}:{metric['name']}"
        for workload in untraced for metric in spec["end_to_end"]
    }
    for workload in untraced:
        result = json.loads(
            (tmp_path / f"{workload}-s0-smoke" / "result.json").read_text()
        )
        assert result["correct"] and result["checks"] > 0, result["problems"]
        for metric in spec["end_to_end"]:
            value = last["metrics"][f"{workload}:{metric['name']}"]
            assert value["unit"] == metric["unit"] and value["value"] > 0
