"""Compare two sets of benchmark results, or summarise one.

    python bench/compare.py A/ [B/] [--claim METRIC:WORKLOAD]... [--trajectory DIR]

Reads every ``result.json`` under each directory (as written by
``run.py --out``) and prints, per (metric, workload), each side's median
and quartiles (``statistics.quantiles(n=4)``) and the spread
(interquartile range over median).

With two sides it checks:

* every workload: all runs on both sides measured for the same number of
  seconds, and B fails no larger share of its attempted operations than
  A does;
* every end-to-end metric: where A's own spread exceeds the metric's
  ``BENCHMARK.json`` bound the row is *unresolved*, unless every B run
  beats every A run.  Otherwise B's median is no worse than A's by more
  than the bound;
* every named ``--claim``: B fails no more than A on the workload, wins
  at least 9 of 10 seed-paired runs (ties count for neither), and the
  medians differ by more than A's interquartile range;
* every ``sim.*`` count is identical run for run, since simulated counts
  must not move with host speed.

It exits 1 if any check fails.  With ``--trajectory DIR`` it writes the
medians of side A to ``DIR/<git sha>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import load_benchmark, write_json


def load(directory: Path) -> "dict[tuple[str, bool], list[dict]]":
    """Correct results under ``directory`` by (workload, traced)."""
    runs = defaultdict(list)
    for path in sorted(directory.rglob("result.json")):
        result = json.loads(path.read_text())
        if result.get("correct") and not result.get("smoke"):
            runs[(result["workload"], result["trace"])].append(result)
    return runs


def values(results, metric) -> "dict[int, float]":
    return {
        r["seed"]: r["metrics"][metric]["value"]
        for r in results
        if metric in r["metrics"] and metric not in r.get("not_applicable", ())
    }


def summary(samples) -> "tuple[float, float, float, float]":
    """``(median, q1, q3, spread)`` with spread = IQR / |median|."""
    samples = list(samples)
    med = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def beats(b: float, a: float, better: str) -> bool:
    return b > a if better == "higher" else b < a


def failed_share(results) -> float:
    """Failed over attempted operations, summed over ``results``."""
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def workload_problems(workload, side_a, side_b) -> "list[str]":
    """Run-length and failure checks of one workload's two sides."""
    results_a, results_b = (
        [r for (name, _), results in side.items() if name == workload for r in results]
        for side in (side_a, side_b)
    )
    problems = []
    lengths = {r["seconds"] for r in results_a + results_b}
    if len(lengths) > 1:
        problems.append(
            f"{workload}: runs measured for different seconds {sorted(lengths)}"
        )
    if results_b and failed_share(results_b) > failed_share(results_a):
        problems.append(
            f"{workload}: B failed {failed_share(results_b):.2%} of attempted "
            f"operations, A {failed_share(results_a):.2%}"
        )
    return problems


def verdict(metric, workload, va, vb, row_a, row_b, decl, bound, failures) -> str:
    better = decl["better"]
    if row_a[3] > bound:
        if all(beats(b, a, better) for b in vb.values() for a in va.values()):
            return "ok (every B run better)"
        return f"UNRESOLVED (A spread {row_a[3]:.1%} > bound {bound:.0%})"
    change = worse_by(row_a[0], row_b[0], better)
    if change <= bound:
        return f"ok ({-change:+.1%})"
    failures.append(f"{metric} on {workload}: {change:.1%} worse > bound {bound:.0%}")
    return f"REGRESSION ({-change:+.1%})"


def _fmt(summary_row) -> str:
    med, q1, q3, spread = summary_row
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}] {spread:6.1%}"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    parser.add_argument("--trajectory", type=Path, metavar="DIR")
    args = parser.parse_args()
    spec = load_benchmark()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    side_a = load(args.a)
    side_b = load(args.b) if args.b else {}
    if not side_a:
        print(f"no correct results under {args.a}", file=sys.stderr)
        return 2

    failures = []
    if args.b:
        for workload in sorted({name for name, _ in side_a}):
            failures += workload_problems(workload, side_a, side_b)
    medians = defaultdict(dict)
    print(f"{'metric':44s} {'workload':15s} A: median [q1, q3] spread"
          + ("   |   B: median [q1, q3] spread   verdict" if args.b else ""))
    for (workload, traced), results_a in sorted(side_a.items()):
        results_b = side_b.get((workload, traced), [])
        for metric in declared:
            # End-to-end numbers come from untraced runs only.
            va = {} if traced and metric in bounds else values(results_a, metric)
            if not va:
                continue
            row_a = summary(va.values())
            medians[workload].setdefault(metric, {
                "median": row_a[0], "spread": row_a[3], "runs": len(va),
                "unit": declared[metric]["unit"],
            })
            line = f"{metric:44s} {workload:15s} {_fmt(row_a)}"
            vb = values(results_b, metric)
            if vb:
                row_b = summary(vb.values())
                line += f"   |   {_fmt(row_b)}   "
                if metric.startswith("sim.") and va != vb:
                    line += "SIM-MISMATCH"
                    failures.append(f"{metric} on {workload}: sim counts differ")
                elif metric in bounds:
                    line += verdict(metric, workload, va, vb, row_a, row_b,
                                    declared[metric], bounds[metric], failures)
            print(line)

    for claim in args.claim:
        failures += check_claim(claim, side_a, side_b, declared)

    if args.trajectory:
        source = next(iter(side_a.values()))[0]["provenance"]
        write_json(args.trajectory / f"{source['git_sha']}.json", {
            "provenance": source,
            "seeds": sorted({r["seed"] for rs in side_a.values() for r in rs}),
            "medians": medians,
        })
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def check_claim(claim, side_a, side_b, declared) -> "list[str]":
    """The pair rule for one named ``METRIC:WORKLOAD`` claim."""
    metric, _, workload = claim.partition(":")
    if metric not in declared:
        return [f"claim {claim}: unknown metric"]
    better = declared[metric]["better"]
    problems = [
        f"claim {claim}: {problem}"
        for problem in workload_problems(workload, side_a, side_b)
    ]

    def side(runs):  # untraced runs first; traced-only metrics from traced ones
        return values(runs.get((workload, False), []), metric) or values(
            runs.get((workload, True), []), metric
        )

    va, vb = side(side_a), side(side_b)
    seeds = sorted(set(va) & set(vb))
    if len(seeds) < 10:
        return problems + [f"claim {claim}: {len(seeds)} seed pairs, need at least 10"]
    wins = sum(beats(vb[s], va[s], better) for s in seeds)
    med_a, q1_a, q3_a, _ = summary(va[s] for s in seeds)
    med_b = statistics.median(vb[s] for s in seeds)
    print(f"claim {claim}: B wins {wins}/{len(seeds)} pairs; "
          f"medians {med_a:.5g} -> {med_b:.5g}; A IQR {q3_a - q1_a:.5g}")
    if wins * 10 < 9 * len(seeds):
        problems.append(f"claim {claim}: B won {wins}/{len(seeds)} pairs (< 9/10)")
    if not (beats(med_b, med_a, better) and abs(med_b - med_a) > q3_a - q1_a):
        problems.append(f"claim {claim}: median change within A's IQR")
    return problems


if __name__ == "__main__":
    sys.exit(main())
