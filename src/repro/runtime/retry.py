"""Bounded-retry policy with deterministic exponential backoff.

One policy object covers every recovery path of the runtime: the plan
executor retries tasks whose worker was killed, hung past its wall-clock
timeout or raised a *transient* exception, and the serving layer's
:meth:`repro.serving.pool.SessionPool.warm` reuses the same policy for
flaky session compiles.  Backoff is deterministic by construction —
``base * factor**(attempt - 1)``, capped, no jitter — so an injected
fault scenario replays with an identical journal event sequence on
every run.

Transient vs. permanent is an explicit contract, not a guess: only
worker deaths, timeouts and exceptions deriving from
:class:`TransientError` are retried.  Everything else (a
``ConfigError``, a driver bug) is deterministic — rerunning it would
fail identically — so it quarantines immediately instead of burning the
retry budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError, ReproError


class TransientError(ReproError, RuntimeError):
    """A failure worth retrying: rerunning the same work may succeed.

    Raised by the executor fault hook (injected transient faults) and by
    any caller that wants the retry layer to re-dispatch instead of
    quarantining — e.g. a session compile hitting a recoverable resource
    error.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries, per-task timeout, deterministic backoff.

    Attributes:
        max_retries: re-dispatches after the first attempt (0 = fail on
            the first transient error; total attempts = ``max_retries + 1``).
        task_timeout_s: per-attempt wall-clock ceiling enforced by the
            *parent* process (``None`` = unbounded).  A timed-out worker
            is killed and the attempt counts as transient.
        backoff_base_s: delay before the first retry.
        backoff_factor: multiplier applied per further retry.
        backoff_max_s: ceiling on any single backoff delay.
        deadline_s: optional *total* budget across all attempts and
            backoff sleeps.  A retry is only scheduled when its backoff
            delay still fits inside the remaining budget; otherwise the
            last error propagates immediately.  This is what lets a
            serving client retry without overshooting its request
            deadline.  The schedule itself stays deterministic (the
            budget never changes *which* delay a given attempt gets,
            only whether the attempt happens at all).
    """

    max_retries: int = 2
    task_timeout_s: "float | None" = None
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 8.0
    deadline_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )

    @property
    def total_attempts(self) -> int:
        """First attempt plus every allowed retry."""
        return self.max_retries + 1

    def backoff_s(self, attempt: int) -> float:
        """Delay after failed attempt number ``attempt`` (1-based).

        Deterministic exponential: ``base * factor**(attempt - 1)``,
        capped at ``backoff_max_s``.  No jitter — the sweep runtime
        promises that the same fault scenario produces the same journal,
        and a randomized delay would break byte-level replay of the
        ``task_retried`` events.
        """
        if attempt < 1:
            raise ConfigError(f"attempt is 1-based, got {attempt}")
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )


def is_transient(error: BaseException) -> bool:
    """The shared transient/permanent classifier of the runtime."""
    return isinstance(error, TransientError)


def call_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    *,
    classify: "Callable[[BaseException], bool] | None" = None,
    on_retry: "Callable[[int, BaseException, float], None] | None" = None,
    sleep: Callable[[float], None] = time.sleep,
    deadline_s: "float | None" = None,
    clock: Callable[[], float] = time.monotonic,
) -> Any:
    """Call ``fn`` under the policy's bounded-retry budget.

    Args:
        fn: zero-argument callable to (re)try.
        policy: retry budget and backoff schedule.
        classify: transient predicate (default: :func:`is_transient`).
        on_retry: observer called as ``(failed_attempt, error, delay_s)``
            before each backoff sleep — the journal hook.
        sleep: injectable for tests; production uses ``time.sleep``.
        deadline_s: per-call override of ``policy.deadline_s`` — the
            total budget, measured on ``clock``, from the first attempt.
            A retry whose backoff delay cannot complete inside the
            remaining budget is not attempted; the error propagates.
        clock: monotonic time source, injectable for tests.

    Raises:
        The last error, when it is permanent, the attempt budget is
        exhausted, or the next backoff no longer fits the deadline.
    """
    classify = classify or is_transient
    if deadline_s is None:
        deadline_s = policy.deadline_s
    started = clock()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except Exception as error:
            if not classify(error) or attempt >= policy.total_attempts:
                raise
            delay = policy.backoff_s(attempt)
            if deadline_s is not None:
                remaining = deadline_s - (clock() - started)
                # The retry must both wait out the backoff and leave a
                # strictly positive slice of budget to actually run in.
                if delay >= remaining:
                    raise
            if on_retry is not None:
                on_retry(attempt, error, delay)
            if delay > 0:
                sleep(delay)
