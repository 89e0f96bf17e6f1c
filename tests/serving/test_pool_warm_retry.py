"""SessionPool.warm under the sweep runtime's retry policy.

Flaky compiles — a compile raising :class:`TransientError` — must not
fail the whole warm-up when a :class:`RetryPolicy` is supplied: the
compile is retried in place.  Without a policy the error propagates
unchanged, which is the pre-existing contract.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving import SessionPool
from repro.runtime.retry import RetryPolicy, TransientError

SEED = 2021
POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.0)


class FlakySessionPool(SessionPool):
    """A pool whose first ``failures`` compiles of each model are flaky."""

    def __init__(self, failures=1, **kwargs):
        super().__init__(**kwargs)
        self.failures = failures
        self.calls: dict[str, int] = {}

    def session(self, model):
        count = self.calls.get(model, 0) + 1
        self.calls[model] = count
        if count <= self.failures:
            raise TransientError(f"flaky compile of {model} (call {count})")
        return super().session(model)


class TestSerialWarmRetry:
    def test_transient_compile_retried_to_success(self, definitions):
        pool = FlakySessionPool(failures=1, seed=SEED, definitions=definitions)
        pool.warm(["Tiny-GEMM", "Tiny-CNN"], policy=POLICY)
        assert set(pool.compiled_models) == {"Tiny-GEMM", "Tiny-CNN"}
        assert pool.calls == {"Tiny-GEMM": 2, "Tiny-CNN": 2}

    def test_budget_exhaustion_propagates_last_error(self, definitions):
        pool = FlakySessionPool(failures=3, seed=SEED, definitions=definitions)
        with pytest.raises(TransientError, match="call 3"):
            pool.warm(["Tiny-GEMM"], policy=POLICY)
        assert pool.compiled_models == ()

    def test_no_policy_fails_on_first_transient(self, definitions):
        pool = FlakySessionPool(failures=1, seed=SEED, definitions=definitions)
        with pytest.raises(TransientError, match="call 1"):
            pool.warm(["Tiny-GEMM"])
        assert pool.calls == {"Tiny-GEMM": 1}

    def test_permanent_error_is_not_retried(self, definitions):
        pool = SessionPool(seed=SEED, definitions=definitions)
        with pytest.raises(ConfigError, match="unknown model"):
            pool.warm(["No-Such-Model"], policy=POLICY)

    def test_warmed_pool_serves_bit_identically(self, definitions, runs_equal):
        plain = SessionPool(seed=SEED, definitions=definitions)
        flaky = FlakySessionPool(failures=1, seed=SEED, definitions=definitions)
        flaky.warm(["Tiny-GEMM"], policy=POLICY)
        expected = plain.session("Tiny-GEMM").run([0])
        recovered = flaky.session("Tiny-GEMM").run([0])
        runs_equal(expected.per_image[0], recovered.per_image[0])
