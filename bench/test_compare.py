"""Unit tests of ``compare.py``'s verdict, failure and run-length rules."""

from __future__ import annotations

import compare

LOWER = {"better": "lower"}


def _verdict(va, vb, bound=0.25):
    va, vb = dict(enumerate(va)), dict(enumerate(vb))
    failures = []
    text = compare.verdict(
        "m", "w", va, vb, compare.summary(va.values()),
        compare.summary(vb.values()), LOWER, bound, failures,
    )
    return text, failures


def test_wide_parent_spread_is_unresolved_even_when_the_median_holds():
    # A's spread (IQR over median) is far above the bound; B's median is
    # unchanged, which must not read as "ok".
    text, failures = _verdict([5, 8, 10, 12, 15], [5, 8, 10, 12, 15])
    assert text.startswith("UNRESOLVED") and not failures


def test_wide_parent_spread_resolves_when_every_b_run_is_better():
    text, _ = _verdict([5, 8, 10, 12, 15], [1, 2, 3, 4, 4.5])
    assert text == "ok (every B run better)"


def test_narrow_parent_spread_checks_the_bound():
    assert _verdict([10, 10.1, 10.2], [11, 11, 11])[0].startswith("ok")
    text, failures = _verdict([10, 10.1, 10.2], [14, 14, 14])
    assert text.startswith("REGRESSION") and failures


def _run(workload="w", seconds=12.0, attempted=100, failed=0, trace=False):
    return {
        "workload": workload, "trace": trace, "seconds": seconds,
        "attempted": attempted, "failed": failed,
    }


def test_more_failures_on_b_fail_the_workload():
    side_a = {("w", False): [_run(failed=1)]}
    assert compare.workload_problems("w", side_a, {("w", False): [_run(failed=1)]}) == []
    problems = compare.workload_problems("w", side_a, {("w", False): [_run(failed=40)]})
    assert len(problems) == 1 and "failed" in problems[0]


def test_runs_of_different_length_do_not_compare():
    side_a = {("w", False): [_run()]}
    side_b = {("w", True): [_run(seconds=6.0, trace=True)]}
    problems = compare.workload_problems("w", side_a, side_b)
    assert len(problems) == 1 and "seconds" in problems[0]


def test_a_claim_fails_when_b_fails_more():
    side_a = {("w", False): [dict(_run(), seed=s, metrics={}) for s in range(10)]}
    side_b = {("w", False): [dict(_run(failed=50), seed=s, metrics={}) for s in range(10)]}
    problems = compare.check_claim(
        "throughput_per_s:w", side_a, side_b,
        {"throughput_per_s": {"better": "higher"}},
    )
    assert any("failed" in problem for problem in problems)
