"""Helpers shared by the benchmark's entry points and workloads.

Everything here is stdlib-only so that ``run.py`` and ``compare.py``
work without the program on the path; the workloads import the program
(``repro``) themselves, from the checkout's ``src/`` tree.
"""

from __future__ import annotations

import json
import os
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_OUT = BENCH / "out"

#: Deployment flags every served workload spells out on the server CLI.
SERVER_FLAGS = (
    "--batch-cap", "4", "--deadline-ms", "50", "--queue-depth", "16",
    "--workers", "2",
)

#: Seed of the program's synthetic weights/activations (the server's and
#: the oracle's default).  The benchmark seed only picks image ids and
#: arrival schedules, so every seed serves the same models.
PROGRAM_SEED = 2021

#: Inherited thread settings recorded in the provenance; never set here.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)

now = time.monotonic


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def metric_units() -> "dict[str, str]":
    """``{name: unit}`` for every declared metric."""
    spec = load_benchmark()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def slug(name: str) -> str:
    """Metric-name slug of a model or experiment: ``Mask R-CNN`` → ``mask-r-cnn``."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def child_env() -> dict:
    """The environment for every process the benchmark starts.

    Only ``PYTHONPATH`` is touched, so the program imports from this
    checkout; BLAS/OpenMP thread variables are inherited as they are.
    """
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among waited-for descendants, MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def write_json(path: Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


class Server:
    """One ``repro.serving.server`` process started through its CLI.

    ``setup_s`` is the wall time from spawn to the ``READY`` line.  With
    ``spans_path`` the server is started by ``traced_server.py``, which
    installs the span wrappers first and writes the spans at exit.
    """

    def __init__(self, argv, log_path: Path, spans_path: "Path | None" = None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.serving.server", *argv]
        else:
            cmd = [
                sys.executable, str(BENCH / "traced_server.py"),
                "--spans", str(spans_path), "--", *argv,
            ]
        self._log = open(log_path, "ab")
        started = now()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=child_env(),
            cwd=ROOT, text=True,
        )
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("READY "):
                    break
            else:
                raise RuntimeError(
                    f"server exited before READY (code {self.proc.wait()}); "
                    f"see {log_path}"
                )
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = now() - started
        info = json.loads(line[len("READY "):])
        self.address = tuple(info["address"])

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``, MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.proc.pid}")

    def stop(self) -> int:
        """Graceful drain (SIGTERM), SIGKILL after 30 s; the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    return self.proc.wait(30.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            return self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


class Connection:
    """A protocol connection: handshake, then frames both ways."""

    def __init__(self, address, client: str):
        from repro.serving.protocol import (
            FrameDecoder, check_hello_ack, encode_frame, hello, recv_frames,
        )

        self._encode = encode_frame
        self.sock = socket.create_connection(address, timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(encode_frame(hello(client)))
        self._frames = recv_frames(self.sock, FrameDecoder())
        check_hello_ack(self.recv())

    def send(self, message: dict) -> None:
        self.sock.sendall(self._encode(message))

    def recv(self) -> dict:
        frame = next(self._frames, None)
        if frame is None:
            raise ConnectionError("server closed the connection")
        return frame

    def close(self) -> None:
        self.sock.close()
