"""Benchmark-harness configuration.

Each benchmark regenerates one of the paper's tables or figures (plus a
few ablations) via the drivers in :mod:`repro.experiments`, asserts the
qualitative shape the paper reports, and reports wall-clock time through
pytest-benchmark.  Heavy sweeps run with a single round so the whole
harness stays in the minutes range.
"""

import pytest


@pytest.fixture
def one_shot(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )

    return _run
