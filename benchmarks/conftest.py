"""Benchmark-harness configuration.

Each benchmark regenerates one of the paper's tables or figures (plus a
few ablations) via the drivers in :mod:`repro.experiments`, asserts the
qualitative shape the paper reports, and reports wall-clock time through
pytest-benchmark.  Heavy sweeps run with a single round so the whole
harness stays in the minutes range.
"""

import json
from pathlib import Path

import pytest

#: Where benchmarks append their measurement rows (gitignored).
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def one_shot(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )

    return _run


@pytest.fixture
def append_trajectory():
    """Append one row to a JSON-list trajectory file under ``results/``."""

    def _append(name: str, row: dict) -> None:
        path = RESULTS_DIR / name
        path.parent.mkdir(parents=True, exist_ok=True)
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(row)
        path.write_text(json.dumps(trajectory, indent=2) + "\n")

    return _append
