"""Every module under ``src/repro`` is reachable from an entry point.

A fresh interpreter imports the system's entry points (the experiments
runner, the socket server, the virtual-clock daemon, the client and the
live soak), resolves every registered experiment driver and runs one
default :func:`repro.spgemm`, which loads the lazily imported blocked
engine.  Any ``repro`` module still missing from ``sys.modules`` then is
code that only tests reach.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json
import pkgutil
import sys

import repro
import repro.experiments.runner
import repro.experiments.serve_live
import repro.serving.client
import repro.serving.daemon
import repro.serving.server
from repro.experiments.registry import EXPERIMENTS

for spec in EXPERIMENTS.values():
    spec.resolve()
repro.spgemm([[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]])

modules = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
print(json.dumps(sorted(name for name in modules if name not in sys.modules)))
"""


def test_every_module_is_reachable_from_an_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    unreachable = json.loads(completed.stdout.strip().splitlines()[-1])
    assert unreachable == []
