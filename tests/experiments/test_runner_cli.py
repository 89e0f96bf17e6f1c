"""CLI tests for ``python -m repro.experiments.runner``.

Cover the satellite contract (unknown names rejected with a clear error
and nonzero exit; ``--list``) and the tentpole guarantees (cached and
parallel invocations print byte-identical tables).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import _eta_text, main as runner_main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private cache root."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = runner_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListAndErrors:
    def test_list_shows_every_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "--list")
        assert code == 0
        for name, spec in EXPERIMENTS.items():
            assert name in out
            assert spec.description in out

    def test_list_includes_spconv_experiment(self, capsys):
        """The full-resolution conv pipeline is a first-class experiment."""
        code, out, _ = run_cli(capsys, "--list")
        assert code == 0
        assert "spconv" in out
        assert "Full-resolution dual-side conv" in out

    def test_unknown_experiment_nonzero_exit_and_clear_error(self, capsys):
        code, out, err = run_cli(capsys, "tabel3")  # typo on purpose
        assert code == 2
        assert out == ""
        assert "unknown experiment" in err
        assert "tabel3" in err
        assert "table3" in err  # the error lists what IS available

    def test_unknown_gpu_preset_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--quick", "--gpu", "h100", "table2")
        assert code == 2
        assert "h100" in err

    def test_invalid_jobs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--jobs", "0", "table2")
        assert code == 2
        assert "--jobs" in err

    def test_negative_max_retries_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--max-retries", "-1", "table2")
        assert code == 2
        assert "--max-retries" in err

    def test_non_positive_task_timeout_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--task-timeout", "0", "table2")
        assert code == 2
        assert "--task-timeout" in err

    def test_resume_without_cache_or_journal_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--resume", "--no-cache", "fig19")
        assert code == 2
        assert "--resume" in err


class TestCachedAndParallelIdentity:
    def test_cached_rerun_is_byte_identical(self, capsys):
        code, first, _ = run_cli(capsys, "--quick", "table3", "fig19")
        assert code == 0
        code, second, err = run_cli(capsys, "--quick", "table3", "fig19")
        assert code == 0
        assert second == first
        assert "2 cache hit(s)" in err

    def test_no_cache_still_identical_output(self, capsys):
        _, cached_run, _ = run_cli(capsys, "--quick", "fig19")
        _, uncached_run, err = run_cli(capsys, "--quick", "--no-cache", "fig19")
        assert uncached_run == cached_run
        assert "0 cache hit(s)" in err

    def test_parallel_output_matches_serial(self, capsys):
        _, serial, _ = run_cli(capsys, "--quick", "--no-cache", "table2", "fig5", "fig19")
        _, parallel, _ = run_cli(
            capsys, "--quick", "--no-cache", "--jobs", "2", "table2", "fig5", "fig19"
        )
        assert parallel == serial

    def test_gpu_flag_runs_per_preset_with_titles(self, capsys):
        code, out, _ = run_cli(
            capsys, "--quick", "--gpu", "a100", "--gpu", "t4", "fig19"
        )
        assert code == 0
        assert "=== fig19 @ a100 ===" in out
        assert "=== fig19 @ t4 ===" in out

    def test_diagnostics_go_to_stderr_not_stdout(self, capsys):
        _, out, err = run_cli(capsys, "--quick", "table2")
        assert "[runner]" in err
        assert "[runner]" not in out

    def test_progress_lines_count_every_task(self, capsys):
        _, _, err = run_cli(capsys, "--quick", "fig19", "fig5")
        assert "[runner] 1/2" in err
        assert "[runner] 2/2" in err


@pytest.mark.parametrize(
    "durations, pending_left, jobs, text",
    [
        ([2.0, 4.0], 5, 1, ", eta 15s"),  # mean task time x tasks left
        ([2.0, 4.0], 6, 2, ", eta 9s"),  # jobs share the tasks left
        ([2.0, 4.0], 1, 4, ", eta 3s"),  # never more jobs than tasks
        ([], 3, 2, ""),
        ([2.0], 0, 2, ""),
    ],
)
def test_eta_is_remaining_wall_time(durations, pending_left, jobs, text):
    assert _eta_text(durations, pending_left, jobs) == text


#: Runs the runner CLI and writes the modules it imported to argv[1].
IMPORT_PROBE = """
import json, sys
from repro.experiments.runner import main

code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""


class TestImportContract:
    """A dry run and a fully cached run never pay for the computation's
    imports: no SciPy, no kernels, no model zoo and no driver module."""

    ARGV = ["--quick", "--jobs", "2", "fig5", "fig19", "table4"]

    def heavy_imports(self, tmp_path, *argv):
        report = tmp_path / "imports.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(report), *argv],
            env=env,
            capture_output=True,
            check=True,
            timeout=120,
        )
        result = json.loads(report.read_text())
        assert result["code"] == 0
        drivers = {spec.module for spec in EXPERIMENTS.values()}
        return [
            name
            for name in result["modules"]
            if name in drivers
            or name.split(".")[0] == "scipy"
            or name.startswith(("repro.kernels", "repro.nn.models"))
        ]

    def test_dry_run_imports_no_driver(self, tmp_path):
        assert self.heavy_imports(tmp_path, *self.ARGV, "--dry-run") == []

    def test_cached_run_imports_no_driver(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert self.heavy_imports(tmp_path, *self.ARGV) == []


class TestDryRun:
    def test_dry_run_prints_plan_and_executes_nothing(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--quick", "--dry-run", "fig19", "fig5")
        assert code == 0
        assert "fig19" in out and "fig5" in out
        assert "pending" in out
        assert "dry run" in err and "nothing executed" in err
        assert "=== fig19" not in out  # no result tables, just the plan
        # Nothing was computed: a real run afterwards starts cold.
        code, _, err = run_cli(capsys, "--quick", "fig19", "fig5")
        assert code == 0
        assert "0 cache hit(s)" in err

    def test_dry_run_shows_cached_statuses(self, capsys):
        run_cli(capsys, "--quick", "fig19")
        code, out, _ = run_cli(capsys, "--quick", "--dry-run", "fig19", "fig5")
        assert code == 0
        assert "cached" in out
        assert "pending" in out


class TestFailureReporting:
    # The 1ms budget expires before any experiment can finish (the
    # parent wakes at the deadline and kills the worker), so every
    # attempt reliably times out.
    FAILING = [
        "--quick",
        "--task-timeout",
        "0.001",
        "--max-retries",
        "1",
        "--keep-going",
        "table3",
    ]

    def test_permanent_failure_exits_nonzero_with_summary(self, capsys):
        code, out, err = run_cli(capsys, *self.FAILING)
        assert code == 1
        assert out == ""  # no table for a quarantined task
        assert "FAILED table3" in err
        assert "params=" in err
        assert "1 retry(ies) used" in err
        assert "1 failed" in err

    def test_fail_fast_reports_undispatched_tasks(self, capsys):
        argv = [arg for arg in self.FAILING if arg != "--keep-going"]
        code, _, err = run_cli(capsys, *argv, "fig5")
        assert code == 1
        assert "stopped after first failure" in err
        assert "--keep-going" in err

    def test_keep_going_still_prints_surviving_tables(self, capsys):
        # table3 is quarantined by the injected timeout; fig5 was cached
        # beforehand so it survives the timeout and still prints.
        code, reference, _ = run_cli(capsys, "--quick", "fig5")
        assert code == 0
        code, out, err = run_cli(capsys, *self.FAILING, "fig5")
        assert code == 1
        assert out == reference
        assert "FAILED table3" in err


class TestResume:
    def test_resume_after_finished_run_is_byte_identical(self, capsys):
        code, first, _ = run_cli(capsys, "--quick", "fig19", "fig5")
        assert code == 0
        code, second, err = run_cli(capsys, "--quick", "--resume", "fig19", "fig5")
        assert code == 0
        assert second == first
        assert "resuming plan" in err
        assert "2 cache hit(s)" in err

    def test_resume_with_explicit_journal_file(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        code, _, _ = run_cli(
            capsys, "--quick", "--journal", str(journal), "fig19"
        )
        assert code == 0
        assert journal.exists()
        code, _, err = run_cli(
            capsys, "--quick", "--journal", str(journal), "--resume", "fig19"
        )
        assert code == 0
        assert "resuming plan" in err
