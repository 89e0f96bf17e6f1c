"""Every module under ``src/repro`` is reachable, and every name is used.

A fresh interpreter imports the system's entry points (the experiments
runner, the socket server, the virtual-clock daemon, the client and the
live soak), resolves every registered experiment driver and runs one
default :func:`repro.spgemm`, which loads the lazily imported blocked
engine.  Any ``repro`` module still missing from ``sys.modules`` then is
code that only tests reach.

Inside the modules, a function, method or class whose name appears
nowhere but on its own definition line — not in ``src/``, the tests,
the benchmarks, the examples or the README — is code nothing calls.
The scan works on names, so a used name also covers any unused
definition that shares it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Where a name counts as used.
SCANNED = ("src", "tests", "bench", "benchmarks", "examples")

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


def _definitions() -> Counter:
    """Definitions per function, method and class name under src/repro."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    counts = Counter()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, kinds) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                counts[node.name] += 1
    return counts


def test_every_function_method_and_class_is_named_beyond_its_definition():
    paths = [path for top in SCANNED for path in (ROOT / top).rglob("*.py")]
    words = Counter()
    for path in [*paths, ROOT / "README.md"]:
        words.update(re.findall(r"\w+", path.read_text()))
    unused = sorted(
        name for name, count in _definitions().items() if words[name] <= count
    )
    assert unused == []
