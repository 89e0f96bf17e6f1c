#!/usr/bin/env bash
# Smoke-test CI: the tier-1 test suite, then only what tier-1 does not
# already run.  Tier-1 (`pytest -x -q` from the root) collects every
# test under tests/ and benchmarks/ — the golden snapshots, the parity
# suites, the conformance grid, the serving and sweep-runtime suites,
# the README doctests and the gated benchmarks — so none of them is
# re-run here.  The extra steps are a quick serve_daemon runner smoke,
# a wall-clock chaos soak smoke of the socket serving front-end (real
# server subprocess, seeded net faults, SIGKILL + restart, SIGTERM
# drain — the exactly-one-terminal, digest-identity and drain
# invariants must hold), a kill-and-resume smoke that SIGKILLs a live
# sweep and demands a byte-identical report after --resume, and a
# parallel + cached runner smoke pass whose cold run must journal no
# failed attempt and whose cached re-run must print byte-identical
# tables.
# Run from anywhere; no arguments.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== serving daemon smoke (quick Poisson run over the zoo) =="
timeout 300 python -m repro.experiments.runner --quick --no-cache serve_daemon \
    > /dev/null

echo "== live serving soak smoke (socket server, seeded chaos, SIGKILL + restart, drain) =="
# The soak's own invariant checks are the assertion: nonzero exit means
# a robustness breach (duplicate terminal, digest mismatch, bad drain).
timeout 300 python -m repro.experiments.serve_live \
    --requests 24 --clients 2 > /dev/null

echo "== crash-safety smoke: SIGKILL a live sweep, --resume to a byte-identical report =="
crash_dir="$(mktemp -d)"
trap 'rm -rf "$crash_dir"' EXIT
CRASH_EXPERIMENTS=(fig19 fig5 table3 fig21)
REPRO_CACHE_DIR="$crash_dir/straight" python -m repro.experiments.runner \
    --quick "${CRASH_EXPERIMENTS[@]}" > "$crash_dir/straight.txt"
REPRO_CACHE_DIR="$crash_dir/killed" python -m repro.experiments.runner \
    --quick "${CRASH_EXPERIMENTS[@]}" > /dev/null 2>&1 &
victim=$!
# Kill as soon as the journal records the first completed task.
for _ in $(seq 1 1500); do
    if grep -qs task_completed "$crash_dir"/killed/runs/*.jsonl; then break; fi
    kill -0 "$victim" 2> /dev/null || { echo "victim exited early" >&2; exit 1; }
    sleep 0.02
done
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
grep -qs task_completed "$crash_dir"/killed/runs/*.jsonl
! grep -qs run_finished "$crash_dir"/killed/runs/*.jsonl
REPRO_CACHE_DIR="$crash_dir/killed" python -m repro.experiments.runner \
    --quick --resume "${CRASH_EXPERIMENTS[@]}" > "$crash_dir/resumed.txt"
cmp "$crash_dir/straight.txt" "$crash_dir/resumed.txt"

echo "== runner smoke: --quick --jobs 2 --cache, no failed attempt, cached re-run byte-identical =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$crash_dir"' EXIT
REPRO_CACHE_DIR="$smoke_dir/cache" python -m repro.experiments.runner \
    --quick --jobs 2 --cache > "$smoke_dir/first.txt"
# A retry can absorb a crashed worker and still exit 0, so read the cold
# run's journal (the cached re-run rewrites it): no attempt may fail.
if grep -hs task_failed "$smoke_dir"/cache/runs/*.jsonl >&2; then
    echo "the cold run journaled a failed attempt (above)" >&2
    exit 1
fi
REPRO_CACHE_DIR="$smoke_dir/cache" python -m repro.experiments.runner \
    --quick --jobs 2 --cache > "$smoke_dir/second.txt"
cmp "$smoke_dir/first.txt" "$smoke_dir/second.txt"

echo "CI OK"
