"""The benchmark: every workload, end-to-end and per-layer metrics.

    python bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace [0|1]] [--out DIR] [--smoke]

Each workload (default: all of ``BENCHMARK.json``) runs in its own
process (``workload.py``) and verifies the program's outputs against the
functional oracle or the golden rows, outside its timed windows.  The
command prints every metric by name with its unit, writes
``DIR/<workload>-s<seed>[-trace]/result.json`` (with provenance), and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics, or with ``--trace`` the
per-layer metrics.  A traced run repeats the workload with spans
recorded and writes ``spans.jsonl`` and a per-(model, layer, phase)
table beside the result.  Per-layer metrics of a layer a workload does
not exercise read 0 and are listed under ``not_applicable``.  A failed
verification prints no metrics and exits 1; a checkout without the
program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from common import (
    BENCH,
    BLAS_THREAD_VARS,
    DEFAULT_OUT,
    ROOT,
    SRC,
    child_env,
    load_benchmark,
    metric_units,
    write_json,
)

WORKLOAD_TIMEOUT_S = 170.0


def _git(*args) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
        check=True, timeout=30,
    ).stdout.strip()


def provenance() -> dict:
    """Machine and code fingerprint recorded with every result."""
    import numpy

    found = {
        "git_sha": "unknown",
        "git_dirty": None,
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "unknown",
        "env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }
    # Only this checkout's own repository: never a git repo above it.
    if (ROOT / ".git").exists():
        try:
            found["git_sha"] = _git("rev-parse", "HEAD")
            found["git_dirty"] = bool(_git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                found["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        found["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return found


def _run_workload(name, args, rundir: Path) -> "tuple[int, str]":
    """Run one workload process (and its whole process group) to the end."""
    cmd = [
        sys.executable, str(BENCH / "workload.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(rundir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    with open(rundir / "workload.log", "wb") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            return proc.wait(WORKLOAD_TIMEOUT_S), ""
        except subprocess.TimeoutExpired:
            return -1, f"timed out after {WORKLOAD_TIMEOUT_S:.0f}s"
        finally:
            # Servers and runners the workload started share its group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def _result(name, args, rundir, code, why, units, spec) -> dict:
    raw_path = rundir / "raw.json"
    raw = json.loads(raw_path.read_text()) if code == 0 and raw_path.exists() else {}
    measured = raw.get("metrics", {})
    checks = raw.get("checks", [])
    problems = [why] if why else []
    if code != 0:
        problems.append(f"workload exited {code}; see {rundir / 'workload.log'}")
    problems += [f"check failed: {check}" for check, ok in checks if not ok]
    if code == 0 and not checks:
        problems.append("no verification ran")
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if code == 0:
        problems += [f"metric not measured: {m}" for m in end_to_end if m not in measured]
    not_applicable = [m for m in per_layer if m not in measured]
    wanted = end_to_end + [
        m for m in per_layer if args.trace or m not in not_applicable
    ]
    metrics = {
        m: {"value": measured.get(m, 0.0), "unit": units[m]} for m in wanted
    }
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": not problems,
        "problems": problems,
        "attempted": raw.get("attempted", 0),
        "failed": raw.get("failed", 0),
        "checks": len(checks),
        "latency_samples": raw.get("latency_samples", 0),
        "metrics": metrics if not problems else {},
        "not_applicable": not_applicable if args.trace else [],
    }


def main() -> int:
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measured time per workload; at most run_seconds of BENCHMARK.json, "
        "the length the workload timeout is sized for",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="repeat each workload with spans recorded; report per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a seconds-long pass of each workload at reduced sizes (tests only)",
    )
    args = parser.parse_args()
    if not 0 < args.seconds <= spec["run_seconds"]:
        parser.error(f"--seconds must be in (0, {spec['run_seconds']}]")
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    units = metric_units()
    source = provenance()
    results = []
    for name in args.workload or names:
        suffix = "-smoke" if args.smoke else ""
        rundir = args.out / f"{name}-s{args.seed}{'-trace' if args.trace else ''}{suffix}"
        if rundir.exists():
            shutil.rmtree(rundir)
        rundir.mkdir(parents=True)
        code, why = _run_workload(name, args, rundir)
        result = _result(name, args, rundir, code, why, units, spec)
        result["provenance"] = source
        write_json(rundir / "result.json", result)
        results.append(result)
        print(f"== {name} (seed {args.seed}) correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for problem in result["problems"]:
            print(f"   {problem}")
        for metric, value in result["metrics"].items():
            note = "  (n/a)" if metric in result["not_applicable"] else ""
            print(f"   {metric:42s} {value['value']:14.6g} {value['unit']}{note}")

    correct = all(r["correct"] for r in results)
    metrics = {}
    if correct:
        shown = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        for r in results:
            prefix = "" if len(results) == 1 else f"{r['workload']}:"
            metrics.update(
                {prefix + m: r["metrics"][m] for m in shown}
            )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
