"""The README's quickstart snippets run as doctests.

They run in a fresh interpreter with ``PYTHONPATH=src``, as a reader
pasting them would, so the live-server snippet's BLAS cap and threads
never touch the test process.  ``ELLIPSIS`` matches pytest's doctest
default.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_readme_doctests_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "doctest", "-o", "ELLIPSIS", "README.md"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
