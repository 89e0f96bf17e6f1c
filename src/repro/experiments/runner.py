"""Command-line entry point: regenerate every table and figure.

Usage::

    python -m repro.experiments.runner                # everything (slow-ish)
    python -m repro.experiments.runner table3 fig21
    python -m repro.experiments.runner --list         # show what exists
    python -m repro.experiments.runner --quick --jobs 4
    python -m repro.experiments.runner --gpu a100 --gpu t4 fig21
    python -m repro.experiments.runner --dry-run fig21 table3
    python -m repro.experiments.runner --resume fig21 table3

Results are cached (content-addressed on experiment + parameters + code
version, see :mod:`repro.runtime.cache`), so a repeated invocation
prints byte-identical tables near-instantly; pass ``--no-cache`` to
force recomputation.  ``--jobs N`` runs cache misses in ``N`` worker
processes without changing the output order.

Execution is plan-first and crash-safe: the invocation expands into a
content-addressed :class:`repro.runtime.plan.RunPlan` (``--dry-run``
prints it and exits), every state transition is journaled to an
append-only fsync'd JSONL file under the cache root, and a run killed at
any point can be relaunched with ``--resume`` — finished tasks are
served from the result cache and the rest re-dispatch, producing a
byte-identical report to an uninterrupted run.  Failing tasks are
retried under a bounded deterministic-backoff policy (``--max-retries``,
``--task-timeout``); a permanently failing cell is quarantined with a
per-task failure summary and a non-zero exit instead of a bare
traceback, and ``--keep-going`` completes the rest of the grid around
it.  Progress/ETA and cache diagnostics go to stderr; stdout carries
only the tables.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigError
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import format_rows
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentTask, TaskResult, run_plan
from repro.runtime.journal import RunJournal, read_events, replay
from repro.runtime.plan import build_plan, format_plan
from repro.runtime.retry import RetryPolicy


def _list_experiments() -> str:
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    for name, spec in EXPERIMENTS.items():
        note = "" if spec.device_aware else "  [device-independent]"
        lines.append(f"  {name.ljust(width)}  {spec.description}{note}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiments to run (default: all; see --list)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="shrink workloads for a fast smoke run"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for uncached experiments (default: 1)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached results when code and parameters are unchanged",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--gpu",
        action="append",
        default=None,
        metavar="PRESET",
        help="GPU preset (repeatable): v100, a100, t4, jetson-xavier",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the experiments' RNG seed"
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered experiments and exit"
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded run plan (tasks, cache keys, statuses) and exit",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run: replay its journal against the "
        "result cache, skip finished tasks, re-dispatch the rest",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per task after a transient failure (killed worker, "
        "timeout; default: 2)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock timeout enforced by the parent process "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine permanently failing tasks and finish the rest of "
        "the grid instead of stopping at the first failure",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="run-journal file (default: <cache-root>/runs/<plan-id>.jsonl "
        "when caching is enabled)",
    )
    return parser


def _eta_text(durations: "list[float]", pending_left: int, jobs: int) -> str:
    """Remaining wall-time estimate from the mean executed-task duration.

    ``jobs`` workers run the remaining tasks side by side, but never more
    of them than there are tasks left.
    """
    if not durations or pending_left <= 0:
        return ""
    mean = sum(durations) / len(durations)
    eta = mean * pending_left / min(jobs, pending_left)
    return f", eta {eta:.0f}s"


def main(argv: "list[str] | None" = None) -> int:
    """Run the selected experiments and print their tables."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        print(_list_experiments())
        return 0
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print(
            f"error: --max-retries must be >= 0, got {args.max_retries}",
            file=sys.stderr,
        )
        return 2
    if args.task_timeout is not None and args.task_timeout <= 0:
        print(
            f"error: --task-timeout must be > 0, got {args.task_timeout}",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.cache and args.journal is None:
        print(
            "error: --resume needs the result cache (drop --no-cache) or an "
            "explicit --journal",
            file=sys.stderr,
        )
        return 2

    names = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment(s): {', '.join(unknown)}\n"
            f"{_list_experiments()}",
            file=sys.stderr,
        )
        return 2

    gpus: "list[str | None]" = args.gpu if args.gpu else [None]
    tasks = [
        ExperimentTask(experiment=name, quick=args.quick, gpu=gpu, seed=args.seed)
        for name in names
        for gpu in gpus
    ]
    cache = ResultCache(args.cache_dir) if args.cache else None
    try:
        plan = build_plan(tasks, cache)
    except ConfigError as error:  # unknown preset, bad parameter, ...
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.dry_run:
        print(format_plan(plan))
        print(
            f"[runner] dry run: {len(plan.entries)} task(s), "
            f"{len(plan.cached())} already cached, nothing executed",
            file=sys.stderr,
        )
        return 0

    journal_path = args.journal
    if journal_path is None and cache is not None:
        journal_path = cache.root / "runs" / f"{plan.short_id}.jsonl"
    journal = None
    if journal_path is not None:
        if args.resume:
            prior = replay(read_events(journal_path))
            finished = sum(
                1 for state in prior.values() if state["status"] == "completed"
            )
            print(
                f"[runner] resuming plan {plan.short_id}: journal has "
                f"{len(prior)} task(s), {finished} finished",
                file=sys.stderr,
            )
        journal = RunJournal(journal_path, resume=args.resume)

    policy = RetryPolicy(
        max_retries=args.max_retries, task_timeout_s=args.task_timeout
    )
    total = len(plan.entries)
    durations: "list[float]" = []

    def progress(done: int, _total: int, result: TaskResult) -> None:
        task = result.task
        where = f"{task.experiment}" + (f" @ {task.gpu}" if task.gpu else "")
        if result.cached:
            outcome = "cached"
        elif result.ok:
            durations.append(result.duration_s)
            outcome = f"ok {result.duration_s:.2f}s"
            if result.attempts > 1:
                outcome += f" (attempt {result.attempts})"
        else:
            outcome = f"FAILED after {result.attempts} attempt(s)"
        pending_left = total - done
        print(
            f"[runner] {done}/{total} {where} {outcome}"
            f"{_eta_text(durations, pending_left, args.jobs)}",
            file=sys.stderr,
        )

    started = time.perf_counter()
    try:
        execution = run_plan(
            plan,
            jobs=args.jobs,
            cache=cache,
            journal=journal,
            policy=policy,
            keep_going=args.keep_going,
            progress=progress,
            resumed=args.resume,
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.perf_counter() - started

    for result in execution.results:
        if not result.ok:
            continue
        task = result.task
        title = (
            f"=== {task.experiment} ==="
            if task.gpu is None
            else f"=== {task.experiment} @ {task.gpu} ==="
        )
        print(format_rows(result.rows, title=title))
        print()

    failures = execution.failures
    for failure in failures:
        task = failure.task
        where = f"{task.experiment}" + (f" @ {task.gpu}" if task.gpu else "")
        retries = max(failure.attempts - 1, 0)
        print(
            f"[runner] FAILED {where} params={dict(task.params)!r}: "
            f"{failure.error} ({retries} retry(ies) used)",
            file=sys.stderr,
        )
    if execution.aborted and len(execution.results) < total:
        print(
            f"[runner] stopped after first failure; "
            f"{total - len(execution.results)} task(s) not dispatched "
            f"(use --keep-going to finish the grid, --resume to continue)",
            file=sys.stderr,
        )

    hits = execution.cache_hits
    print(
        f"[runner] {len(execution.results)} task(s), {hits} cache hit(s), "
        f"{len(failures)} failed, jobs={args.jobs}, {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
