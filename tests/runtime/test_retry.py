"""Tests for the bounded-retry policy and its deterministic backoff."""

import pytest

from repro.errors import ConfigError
from repro.runtime.retry import (
    RetryPolicy,
    TransientError,
    call_with_retry,
    is_transient,
)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.total_attempts == 3

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(task_timeout_s=0.0)

    def test_backoff_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)


class TestBackoff:
    def test_deterministic_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.25, backoff_factor=2.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3)] == [0.25, 0.5, 1.0]

    def test_capped(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, backoff_factor=10.0, backoff_max_s=5.0
        )
        assert policy.backoff_s(3) == 5.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ConfigError):
            RetryPolicy().backoff_s(0)


class TestClassifier:
    def test_transient_error_is_transient(self):
        assert is_transient(TransientError("flaky"))

    def test_ordinary_errors_are_permanent(self):
        assert not is_transient(ValueError("bug"))
        assert not is_transient(ConfigError("typo"))


class TestCallWithRetry:
    def _flaky(self, failures, error=TransientError):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) <= failures:
                raise error(f"failure {len(calls)}")
            return len(calls)

        return fn, calls

    def test_succeeds_after_transient_failures(self):
        fn, calls = self._flaky(failures=2)
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0)
        assert call_with_retry(fn, policy) == 3
        assert len(calls) == 3

    def test_budget_exhausted_raises_last_error(self):
        fn, calls = self._flaky(failures=5)
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0)
        with pytest.raises(TransientError, match="failure 2"):
            call_with_retry(fn, policy)
        assert len(calls) == 2

    def test_permanent_error_is_not_retried(self):
        fn, calls = self._flaky(failures=5, error=ValueError)
        with pytest.raises(ValueError, match="failure 1"):
            call_with_retry(fn, RetryPolicy(max_retries=3, backoff_base_s=0.0))
        assert len(calls) == 1

    def test_zero_retries_fails_on_first_transient(self):
        fn, calls = self._flaky(failures=1)
        with pytest.raises(TransientError):
            call_with_retry(fn, RetryPolicy(max_retries=0))
        assert len(calls) == 1

    def test_on_retry_sees_deterministic_backoff_schedule(self):
        fn, _ = self._flaky(failures=2)
        seen = []
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=0.25, backoff_factor=2.0
        )
        call_with_retry(
            fn,
            policy,
            on_retry=lambda attempt, error, delay: seen.append((attempt, delay)),
            sleep=lambda _s: None,
        )
        assert seen == [(1, 0.25), (2, 0.5)]

    def test_sleep_receives_backoff_delays(self):
        fn, _ = self._flaky(failures=1)
        slept = []
        call_with_retry(
            fn,
            RetryPolicy(max_retries=1, backoff_base_s=0.125),
            sleep=slept.append,
        )
        assert slept == [0.125]

    def test_custom_classifier(self):
        fn, calls = self._flaky(failures=1, error=OSError)
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0)
        result = call_with_retry(
            fn, policy, classify=lambda error: isinstance(error, OSError)
        )
        assert result == 2
        assert len(calls) == 2


class TestDeadlineBudget:
    """The optional total-deadline budget on top of the attempt budget."""

    def _flaky(self, failures):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) <= failures:
                raise TransientError(f"failure {len(calls)}")
            return len(calls)

        return fn, calls

    def _fake_clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        def sleep(seconds):
            state["now"] += seconds

        return clock, sleep

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_s=-1.0)

    def test_retry_stops_when_backoff_cannot_fit_budget(self):
        fn, calls = self._flaky(failures=5)
        clock, sleep = self._fake_clock()
        # Backoffs: 1.0, 2.0 — the second retry's 2.0 s delay no longer
        # fits inside the 2.5 s budget after 1.0 s already slept.
        policy = RetryPolicy(
            max_retries=5, backoff_base_s=1.0, backoff_factor=2.0,
            deadline_s=2.5,
        )
        with pytest.raises(TransientError, match="failure 2"):
            call_with_retry(fn, policy, sleep=sleep, clock=clock)
        assert len(calls) == 2

    def test_budget_roomy_enough_changes_nothing(self):
        fn, calls = self._flaky(failures=2)
        clock, sleep = self._fake_clock()
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=1.0, deadline_s=100.0
        )
        assert call_with_retry(fn, policy, sleep=sleep, clock=clock) == 3
        assert len(calls) == 3

    def test_per_call_override_beats_policy_deadline(self):
        fn, calls = self._flaky(failures=5)
        clock, sleep = self._fake_clock()
        policy = RetryPolicy(
            max_retries=5, backoff_base_s=1.0, backoff_factor=1.0,
            deadline_s=100.0,
        )
        with pytest.raises(TransientError, match="failure 1"):
            call_with_retry(
                fn, policy, sleep=sleep, clock=clock, deadline_s=0.5
            )
        assert len(calls) == 1

    def test_deadline_consumed_by_slow_attempts(self):
        clock, sleep = self._fake_clock()
        calls = []

        def slow_fn():
            calls.append(1)
            sleep(3.0)  # the attempt itself eats the budget
            raise TransientError("slow failure")

        policy = RetryPolicy(
            max_retries=5, backoff_base_s=0.5, deadline_s=3.25
        )
        with pytest.raises(TransientError):
            call_with_retry(slow_fn, policy, sleep=sleep, clock=clock)
        assert len(calls) == 1

    def test_schedule_stays_deterministic_under_budget(self):
        """The budget only truncates the schedule, never reshapes it."""
        fn, _ = self._flaky(failures=3)
        clock, sleep = self._fake_clock()
        seen = []
        policy = RetryPolicy(
            max_retries=3, backoff_base_s=0.25, backoff_factor=2.0,
            deadline_s=100.0,
        )
        call_with_retry(
            fn,
            policy,
            on_retry=lambda attempt, error, delay: seen.append(delay),
            sleep=sleep,
            clock=clock,
        )
        assert seen == [0.25, 0.5, 1.0]
