"""Run one workload in this process and write its raw result.

    python bench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RUNDIR [--smoke]

``run.py`` starts this once per workload, with the checkout's ``src/``
on ``PYTHONPATH``, so every workload runs in its own process.  The raw
result (``RUNDIR/raw.json``) holds the measured metrics, the
verification checks and the attempted/failed counts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from common import write_json


@dataclass(frozen=True)
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    rundir: Path


def _run(ctx: Context) -> dict:
    if ctx.workload in ("serve-demo", "serve-resnet18"):
        import serve

        return serve.run(ctx, demo=ctx.workload == "serve-demo")
    if ctx.workload == "batch-zoo":
        import zoo

        return zoo.run(ctx)
    if ctx.workload == "sweep-paper":
        import sweep

        return sweep.run(ctx)
    raise SystemExit(f"unknown workload {ctx.workload!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    ctx = Context(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        args.out,
    )
    ctx.rundir.mkdir(parents=True, exist_ok=True)
    write_json(ctx.rundir / "raw.json", _run(ctx))
    return 0


if __name__ == "__main__":
    sys.exit(main())
