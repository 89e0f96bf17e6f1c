"""Wall-clock socket serving front-end over the batching core.

The virtual-clock :class:`~repro.serving.daemon.ServingDaemon` proves
the batching discipline deterministically; this module is the piece
that actually *listens*: a TCP / Unix-domain-socket server speaking the
length-prefixed JSON protocol of :mod:`repro.serving.protocol` and
driving the same :class:`~repro.serving.core.BatchingCore` — admission,
flushing, per-request deadlines, worker-death retries and the
exactly-once terminal ledger are the core's, stated once in
:mod:`repro.serving.core` — over the same compiled-session pool, so a
completed response carries a digest of the *real*
:meth:`CompiledModel.run` output, bit-identical to the per-image
functional oracle.

What this module adds on the wall clock:

* **Threads and locking.**  One thread per connection and per worker;
  the core runs under one condition variable, and every socket send
  happens *outside* it, so a stalled peer costs its own connection,
  never the batching loop.
* **Backpressure hints.**  A retryable refusal (``queue-full``,
  ``draining``) carries ``retry_after_ms``, derived from the observed
  per-request service time (an EMA) times the backlog.
* **Graceful drain vs hard kill.**  SIGTERM (or a ``drain`` frame)
  stops admission, flushes every pending queue, finishes in-flight
  batches, then exits 0.  A SIGKILL tears the process down mid-flight;
  recovery is the *client's* deadline-aware retry against a restarted
  server (exercised in ``tests/serving/test_soak.py``).
* **Worker faults.**  An injected :class:`~repro.serving.core.WorkerKill`
  ends a worker thread as it takes (or finishes computing) a batch.

Run it as a process::

    python -m repro.serving.server --unix /tmp/repro.sock --demo-zoo

which warms its sessions, prints one ``READY {...}`` JSON line, and
serves until SIGTERM (drain, exit 0).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time

from repro.errors import ConfigError
from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec
from repro.nn.models import ModelDefinition
from repro.serving.arrivals import Request
from repro.serving.core import (
    BEFORE_RUN,
    RETRYABLE_REJECTIONS,
    BatchingCore,
    FaultPlan,
    ShedPolicy,
    WorkerKill,
)
from repro.serving.health import TERMINAL_COUNTERS, HealthMonitor
from repro.serving.pool import SessionPool
from repro.serving.protocol import (
    DRAIN,
    DRAIN_ACK,
    HEALTH,
    HEALTH_ACK,
    HELLO_ACK,
    PROTOCOL_VERSION,
    REQUEST,
    RESPONSE,
    FrameDecoder,
    ProtocolError,
    check_hello,
    encode_frame,
    error_frame,
    functional_run_digest,
    parse_request,
    recv_frames,
)
from repro.utils.blas import (
    blas_thread_counts,
    cap_blas_threads,
    restore_blas_threads,
)
from repro.version import __version__

#: Fallback per-request service estimate (ms) before the first batch
#: completes — only feeds the ``retry_after_ms`` backpressure hint.
DEFAULT_SERVICE_ESTIMATE_MS = 5.0


def _now_us() -> float:
    """Monotonic wall time in microseconds (never wall-calendar time)."""
    return time.monotonic() * 1e6


class _Connection:
    """One client connection: socket + serialized sends."""

    __slots__ = ("sock", "peer", "client", "_send_lock", "_open")

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.client = ""
        self._send_lock = threading.Lock()
        self._open = True

    def send(self, message: dict) -> bool:
        """Send one frame; ``False`` when the peer is gone."""
        try:
            frame = encode_frame(message)
        except ProtocolError:
            return False
        with self._send_lock:
            if not self._open:
                return False
            try:
                self.sock.sendall(frame)
                return True
            except OSError:
                self._open = False
                return False

    def close(self) -> None:
        with self._send_lock:
            self._open = False
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class ServingServer:
    """Always-on socket front-end over a compiled-session pool.

    Args:
        pool: per-model compiled sessions (see :class:`SessionPool`).
        address: ``(host, port)`` for TCP (port 0 picks a free one) or a
            string/path for a Unix domain socket.
        models: the serve list advertised in the handshake and warmed at
            start-up; ``None`` serves everything the pool can resolve.
        batch_cap: maximum requests per flushed batch.
        deadline_ms: maximum wall wait of the oldest pending request
            before a partial batch flushes.
        queue_depth: per-model admission bound on pending requests.
        workers: worker-thread count batches are sharded across.
        max_retries: extra dispatches a request interrupted by a worker
            death is granted before failing terminally.
        shed: the load-shedding ladder (:class:`ShedPolicy`).
        faults: injected worker kills (:class:`FaultPlan`).
    """

    def __init__(
        self,
        pool: SessionPool,
        address=("127.0.0.1", 0),
        models=None,
        batch_cap: int = 4,
        deadline_ms: float = 50.0,
        queue_depth: int = 16,
        workers: int = 2,
        max_retries: int = 1,
        shed: "ShedPolicy | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> None:
        self.pool = pool
        self.requested_address = address
        self.models = tuple(models) if models is not None else pool.known_models()
        self.batch_cap = int(batch_cap)
        self.deadline_ms = float(deadline_ms)
        self.queue_depth = int(queue_depth)
        self.worker_count = int(workers)
        self.monitor = HealthMonitor()
        self._core = BatchingCore(
            models=self.models,
            batch_cap=self.batch_cap,
            deadline_us=self.deadline_ms * 1000.0,
            queue_depth=self.queue_depth,
            workers=self.worker_count,
            max_retries=int(max_retries),
            shed=shed or ShedPolicy(),
            faults=faults,
        )

        self._cond = threading.Condition()
        self._conns: "dict[str, _Connection]" = {}  # admitted id -> caller
        self._service_ms_ema: "float | None" = None
        self._stopping = False
        self._blas_saved: "dict[str, int] | None" = None

        self._listener: "socket.socket | None" = None
        self._threads: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self.address = None  # resolved at start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, warm: bool = True) -> None:
        """Bind, warm the serve list's sessions, and begin serving."""
        if self._listener is not None:
            raise ConfigError("server already started")
        if isinstance(self.requested_address, (tuple, list)):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(tuple(self.requested_address))
            self.address = listener.getsockname()
        else:
            path = str(self.requested_address)
            # A SIGKILLed predecessor leaves a stale socket file behind;
            # rebinding over it is exactly the restart-after-crash path.
            if os.path.exists(path):
                os.unlink(path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self.address = path
        listener.listen(64)
        self._listener = listener
        if warm:
            self.pool.warm(self.models)
        # OpenBLAS sizes one process-wide pool for every core; each worker
        # thread calling into it would multiply that (see repro.utils.blas).
        self._blas_saved = cap_blas_threads(self.worker_count)
        for worker_id in range(self.worker_count):
            thread = threading.Thread(
                target=self._worker_loop, args=(worker_id,),
                name=f"serve-worker-{worker_id}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        self.monitor.mark_ready()

    def drain(self) -> None:
        """Begin graceful drain: refuse new work, flush, finish, stop.

        Idempotent; callable from a signal handler or a ``drain`` frame.
        """
        with self._cond:
            if self._core.draining:
                return
            self._core.drain()
            self._cond.notify_all()
        self.monitor.begin_drain()

    def await_drained(self, timeout_s: "float | None" = None) -> bool:
        """Block until every worker exited after a drain; then tear down.

        Returns:
            True when the drain completed (all pending work answered);
            False when the timeout expired first.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        for thread in self._threads:
            if thread.name.startswith("serve-worker-"):
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                thread.join(remaining)
                if thread.is_alive():
                    return False
        self._teardown()
        return True

    def shutdown(self) -> None:
        """Hard stop (test teardown): no terminal-response guarantees."""
        with self._cond:
            self._stopping = True
            self._core.drain()
            self._cond.notify_all()
        self._teardown()

    def _teardown(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
            if isinstance(self.address, str) and os.path.exists(self.address):
                try:
                    os.unlink(self.address)
                except OSError:
                    pass
        for conn in tuple(self._connections):
            conn.close()
        self._connections.clear()
        saved, self._blas_saved = self._blas_saved, None
        if saved is not None:
            restore_blas_threads(saved)
        self.monitor.mark_stopped()

    # ------------------------------------------------------------------ #
    # Accept / connection path
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                sock, peer = listener.accept()
            except OSError:
                return  # listener closed: drain/shutdown
            if sock.family == socket.AF_INET:
                # Frames are tiny; Nagle + delayed ACK would add tens of
                # milliseconds between a client's pipelined requests.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, str(peer))
            self._connections.add(conn)
            self.monitor.increment("connections")
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="serve-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: _Connection) -> None:
        decoder = FrameDecoder()
        try:
            frames = recv_frames(conn.sock, decoder)
            first = next(frames, None)
            if first is None:
                return
            conn.client = check_hello(first)
            self.monitor.increment("handshakes")
            conn.send({
                "type": HELLO_ACK,
                "protocol": PROTOCOL_VERSION,
                "server": f"repro-serving/{__version__}",
                "models": list(self.models),
                "batch_cap": self.batch_cap,
                "deadline_ms": self.deadline_ms,
                "queue_depth": self.queue_depth,
            })
            for message in frames:
                kind = message["type"]
                if kind == REQUEST:
                    self._handle_request(conn, message)
                elif kind == HEALTH:
                    conn.send({"type": HEALTH_ACK, **self._health_snapshot()})
                elif kind == DRAIN:
                    self.drain()
                    conn.send({"type": DRAIN_ACK, "state": self.monitor.state})
                else:
                    raise ProtocolError(f"unexpected frame type {kind!r}")
        except ProtocolError as error:
            # A broken stream costs exactly this connection: answer with
            # a protocol error (best-effort) and close; the server keeps
            # serving everyone else.
            self.monitor.increment("protocol_errors")
            conn.send(error_frame("protocol-error", str(error)))
        except OSError:
            pass  # peer vanished mid-read; nothing to answer
        finally:
            conn.close()
            self._connections.discard(conn)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _handle_request(self, conn: _Connection, message: dict) -> None:
        request_id, model, image, deadline_ms = parse_request(message)
        now = _now_us()
        request = Request(
            request_id=request_id,
            model=model,
            image=image,
            arrival_us=now,
            deadline_us=None if deadline_ms is None else now + deadline_ms * 1000.0,
        )
        with self._cond:
            refusal = self._core.admit(request, now)
            if refusal is None:
                self._conns[request_id] = conn
                self.monitor.increment("accepted")
                self._cond.notify_all()
                return
            self.monitor.increment("refused")
            frame = self._response(refusal)
            if refusal.reason in RETRYABLE_REJECTIONS:
                frame["retry_after_ms"] = self._retry_after_ms_locked(model)
        # Sends never run under the server lock: a stalled peer costs
        # its own connection, not the batching loop.
        self._deliver([(conn, frame)])

    def _deliver(self, outbox) -> None:
        """Send terminal/refusal frames, outside every server lock."""
        for conn, frame in outbox:
            if not conn.send(frame):
                self.monitor.increment("undeliverable")

    def _retry_after_ms_locked(self, model: str) -> float:
        depth = self._core.depth(model) + self._core.inflight
        estimate = self._service_ms_ema or DEFAULT_SERVICE_ESTIMATE_MS
        return round(max(1.0, depth * estimate), 3)

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_loop(self, worker_id: int) -> None:
        while True:
            batch = self._await_batch(worker_id)
            if batch is None:
                return
            if batch.kill is not None and batch.kill.at == BEFORE_RUN:
                self._settle(self._core.worker_died, batch)
                return
            started = time.perf_counter()
            try:
                run = self.pool.session(batch.model).run(
                    [request.image for request in batch.requests]
                )
            except Exception as error:  # a session bug, not a protocol issue
                self._settle(
                    self._core.fail, batch,
                    f"execute-error:{type(error).__name__}",
                )
                continue
            elapsed_s = time.perf_counter() - started
            if batch.kill is not None:  # after-run: died before delivering
                self._settle(self._core.worker_died, batch)
                return
            self._batch_completed(batch, run, elapsed_s)

    def _await_batch(self, worker_id: int):
        """Block until a batch is due; None means this worker exits."""
        while True:
            with self._cond:
                if self._stopping:
                    return None
                now = _now_us()
                batch, expired = self._core.take(worker_id, now)
                outbox = self._outbox_locked(expired)
                if batch is None and not outbox:
                    if self._core.drained:
                        return None
                    deadline = self._core.next_deadline_us()
                    self._cond.wait(
                        None if deadline is None else max(0.0, (deadline - now) / 1e6)
                    )
                    continue
                if batch is not None:
                    self.monitor.increment("batches")
            # Requests that expired while queued are answered before the
            # batch runs (or before re-polling when all of them expired).
            self._deliver(outbox)
            if batch is not None:
                return batch

    def _settle(self, call, *args) -> None:
        """Apply one batch outcome to the core and deliver its answers."""
        with self._cond:
            outbox = self._outbox_locked(call(*args, _now_us()))
            self._cond.notify_all()
        self._deliver(outbox)

    def _batch_completed(self, batch, run, elapsed_s: float) -> None:
        digests = {
            request.request_id: functional_run_digest(per_image)
            for request, per_image in zip(batch.requests, run.per_image)
        }
        with self._cond:
            per_request_ms = elapsed_s * 1000.0 / len(batch.requests)
            self._service_ms_ema = (
                per_request_ms
                if self._service_ms_ema is None
                else 0.5 * self._service_ms_ema + 0.5 * per_request_ms
            )
            outbox = self._outbox_locked(
                self._core.complete(batch, _now_us()),
                lambda request: {
                    "digest": digests[request.request_id],
                    "worker": batch.worker,
                    "batch_size": len(batch.requests),
                    "flush_cause": batch.cause,
                },
            )
            self._cond.notify_all()
        self._deliver(outbox)

    # ------------------------------------------------------------------ #
    # Terminal responses
    # ------------------------------------------------------------------ #
    def _response(self, terminal, **fields) -> dict:
        request = terminal.request
        frame = {
            "type": RESPONSE,
            "id": request.request_id,
            "model": request.model,
            "image": request.image,
            "status": terminal.status,
            "reason": terminal.reason,
            "latency_ms": round((_now_us() - request.arrival_us) / 1000.0, 3),
            "attempts": terminal.attempts,
        }
        frame.update(fields)
        return frame

    def _outbox_locked(self, terminals, fields=None) -> list:
        """The frames of the core's ledgered answers, with their callers."""
        outbox = []
        for terminal in terminals:
            self.monitor.increment(TERMINAL_COUNTERS[terminal.status])
            extra = fields(terminal.request) if fields is not None else {}
            outbox.append((
                self._conns.pop(terminal.request.request_id),
                self._response(terminal, **extra),
            ))
        return outbox

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def _health_snapshot(self) -> dict:
        with self._cond:
            core = self._core
            extras = {
                "models": list(self.models),
                "queue_depth_limit": self.queue_depth,
                "pending": core.pending,
                "inflight": core.inflight,
                "live_workers": core.live_workers,
                "shed_level": core.shed_level(),
                "terminals": len(core.ledger),
                "retries": core.retries,
                "violations": core.violations,
            }
            latency = core.latency.summary()
        extras["blas_threads"] = blas_thread_counts()
        extras["latency_ms"] = {
            key: (value / 1000.0 if key.endswith("_us") else value)
            for key, value in latency.items()
        }
        return self.monitor.snapshot(**extras)


# --------------------------------------------------------------------- #
# Demo zoo
# --------------------------------------------------------------------- #
def demo_definitions() -> "dict[str, ModelDefinition]":
    """Two tiny models the CLI, quickstart and soak harness serve.

    Small enough that a session compiles in milliseconds (so a restarted
    server is back inside its clients' retry budgets) while still
    covering both serving paths: a conv model and a transposed-GEMM
    model, each with a deliberately ragged reduction axis.
    """
    return {
        "Demo-CNN": ModelDefinition(
            name="Demo-CNN",
            kind="cnn",
            pruning_scheme="AGP",
            dataset="synthetic",
            accuracy="-",
            conv_layers=(
                ConvLayerSpec(
                    name="c1", in_channels=3, out_channels=8, height=12,
                    width=12, kernel=3, stride=1, padding=1,
                    weight_sparsity=0.5, activation_sparsity=0.4,
                ),
                ConvLayerSpec(
                    name="c2", in_channels=8, out_channels=16, height=12,
                    width=12, kernel=3, stride=2, padding=1,
                    weight_sparsity=0.5, activation_sparsity=0.5,
                ),
            ),
        ),
        "Demo-GEMM": ModelDefinition(
            name="Demo-GEMM",
            kind="gemm",
            pruning_scheme="magnitude",
            dataset="synthetic",
            accuracy="-",
            gemm_layers=(
                GemmLayerSpec(
                    name="g1", m=16, k=18, n=12,
                    weight_sparsity=0.5, activation_sparsity=0.4,
                ),
                GemmLayerSpec(
                    name="g2", m=16, k=18, n=20,
                    weight_sparsity=0.5, activation_sparsity=0.6,
                ),
            ),
        ),
    }


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def _parse_kill(text: str) -> WorkerKill:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"expected WORKER:BATCH_SEQ[:at], got {text!r}"
        )
    at = parts[2] if len(parts) == 3 else BEFORE_RUN
    try:
        return WorkerKill(int(parts[0]), int(parts[1]), at)
    except (ValueError, ConfigError) as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server", description=__doc__
    )
    where = parser.add_mutually_exclusive_group()
    where.add_argument(
        "--unix", metavar="PATH", help="serve on a Unix domain socket"
    )
    where.add_argument(
        "--port", type=int, default=0,
        help="serve on 127.0.0.1:PORT (0 picks a free port)",
    )
    parser.add_argument(
        "--demo-zoo", action="store_true",
        help="serve the built-in tiny demo models (fast compiles)",
    )
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="NAME",
        help="zoo model names to serve (compiled before READY)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--batch-cap", type=int, default=4)
    parser.add_argument("--deadline-ms", type=float, default=50.0)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-retries", type=int, default=1)
    parser.add_argument(
        "--kill-worker", action="append", default=[], type=_parse_kill,
        metavar="W:SEQ[:at]",
        help="inject a worker kill on its SEQ-th batch "
        "(W = worker index, or -1 for whichever worker takes the "
        "server-global SEQ-th batch; at = before-run|after-run); "
        "repeatable",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.demo_zoo and args.models:
        print("--demo-zoo and --models are mutually exclusive", file=sys.stderr)
        return 2
    definitions = demo_definitions() if args.demo_zoo or not args.models else {}
    pool = SessionPool(
        scale=args.scale, seed=args.seed, definitions=definitions
    )
    models = tuple(args.models) if args.models else tuple(definitions)
    try:
        server = ServingServer(
            pool,
            address=args.unix if args.unix else ("127.0.0.1", args.port),
            models=models,
            batch_cap=args.batch_cap,
            deadline_ms=args.deadline_ms,
            queue_depth=args.queue_depth,
            workers=args.workers,
            max_retries=args.max_retries,
            faults=FaultPlan(worker_kills=tuple(args.kill_worker)),
        )
    except ConfigError as error:
        parser.error(str(error))  # exits 2
    signal.signal(signal.SIGTERM, lambda signum, frame: server.drain())
    signal.signal(signal.SIGINT, lambda signum, frame: server.drain())
    server.start()
    print(
        "READY "
        + json.dumps(
            {
                "address": server.address,
                "models": list(models),
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "blas_threads": blas_thread_counts(),
            }
        ),
        flush=True,
    )
    # Block until a drain (SIGTERM / drain frame) completes; exit 0 is
    # the drain contract the soak harness asserts.
    while not server.await_drained(timeout_s=1.0):
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
