"""Deadline-aware client for the wall-clock serving front-end.

:class:`ServingClient` speaks the length-prefixed protocol of
:mod:`repro.serving.protocol` over TCP or a Unix domain socket and
layers the runtime's deterministic retry discipline
(:class:`repro.runtime.retry.RetryPolicy` — capped exponential backoff,
no jitter, optional total-deadline budget) on top:

* **Transient vs. permanent is explicit.**  A dead/unreachable server,
  a dropped connection, a response timeout, ``rejected(queue-full)``,
  ``rejected(draining)`` and ``failed(no-workers | worker-died)`` are
  transient — the server may come back, the queue may empty.  A
  ``rejected(duplicate | unknown-model | deadline)`` is permanent:
  retrying reproduces it.
* **Fresh wire id per attempt.**  The server's duplicate guard is a
  per-lifetime set, so resending a lost request under its original id
  would be refused as a duplicate.  Each retry therefore sends
  ``<id>~r<n>``; recomputation is safe because a session run is a pure
  function of its images.
* **Backpressure hints are honored.**  A ``retry_after_ms`` on a
  rejection stretches the next backoff sleep (never shortens it, and
  never beyond ``backoff_max_s``), so a loaded server shapes its own
  retry traffic.
* **Deadline budget.**  ``policy.deadline_s`` (or the per-request
  ``deadline_ms``) bounds the *total* attempt+backoff time: a retry
  whose backoff cannot finish inside the remaining budget is not
  attempted.

Requests may also be pipelined without retries (:meth:`send_request` +
:meth:`collect`) — that is how the soak harness keeps enough requests in
flight for real batches to form.
"""

from __future__ import annotations

import socket
import time

from repro.errors import ReproError
from repro.runtime.retry import RetryPolicy, TransientError, call_with_retry
from repro.serving.core import (
    COMPLETED,
    FAILED,
    REJECTED,
    RETRYABLE_FAILURES,
    RETRYABLE_REJECTIONS,
)
from repro.serving.protocol import (
    DRAIN_ACK,
    ERROR,
    HEALTH_ACK,
    RESPONSE,
    FrameDecoder,
    ProtocolError,
    check_hello_ack,
    encode_frame,
    hello,
    make_drain,
    make_health,
    make_request,
)


class ServerUnavailable(TransientError):
    """The server is unreachable, hung, or hung up mid-conversation."""


class RequestNotServed(ReproError, RuntimeError):
    """A terminal non-``completed`` response (inspect ``.response``)."""

    def __init__(self, response: dict) -> None:
        super().__init__(
            f"request {response.get('id')!r} {response.get('status')}"
            f"({response.get('reason')})"
        )
        self.response = response


class RequestBusy(RequestNotServed, TransientError):
    """A transient terminal response — worth retrying under the policy."""


def classify_response(response: dict) -> "type[RequestNotServed] | None":
    """The exception class a terminal response maps to (None = served)."""
    status = response.get("status")
    if status == COMPLETED:
        return None
    reason = response.get("reason", "")
    if status == REJECTED and reason in RETRYABLE_REJECTIONS:
        return RequestBusy
    if status == FAILED and reason in RETRYABLE_FAILURES:
        return RequestBusy
    return RequestNotServed


class ServingClient:
    """One connection-at-a-time protocol client with deterministic retries.

    Args:
        address: ``(host, port)`` or a Unix-socket path — the same
            convention as :class:`~repro.serving.server.ServingServer`.
        client: client name sent in the handshake.
        policy: retry discipline for :meth:`request`; the default makes
            three total attempts with 50 ms base backoff and no total
            deadline.
        timeout_s: per-socket-operation timeout (connect, send, and the
            wait for any single response frame).
    """

    def __init__(
        self,
        address,
        client: str = "repro-client",
        policy: "RetryPolicy | None" = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.address = address
        self.client = client
        self.policy = policy or RetryPolicy(
            max_retries=2, backoff_base_s=0.05, backoff_max_s=2.0
        )
        self.timeout_s = float(timeout_s)
        self.server_info: "dict | None" = None
        self._sock: "socket.socket | None" = None
        self._decoder = FrameDecoder()
        self._inbox: list[dict] = []
        self._stash: dict[str, dict] = {}
        self._auto_id = 0
        self._retry_after_hint_s = 0.0

    # ------------------------------------------------------------------ #
    # Connection
    # ------------------------------------------------------------------ #
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> dict:
        """Connect and shake hands; returns the server's hello-ack."""
        if self._sock is not None:
            return self.server_info or {}
        try:
            if isinstance(self.address, (tuple, list)):
                sock = socket.create_connection(
                    tuple(self.address), timeout=self.timeout_s
                )
                # Pipelined requests are tiny frames; without NODELAY,
                # Nagle + delayed ACK holds them back ~40 ms and server
                # batches never fill.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout_s)
                sock.connect(str(self.address))
        except OSError as error:
            raise ServerUnavailable(
                f"cannot connect to {self.address!r}: {error}"
            ) from error
        self._sock = sock
        self._decoder = FrameDecoder()
        self._inbox = []
        try:
            self._send_frame(hello(self.client))
            ack = self._next_frame()
            self.server_info = check_hello_ack(ack)
        except (ProtocolError, ServerUnavailable):
            self.close()
            raise
        return self.server_info

    def close(self) -> None:
        sock, self._sock = self._sock, None
        self.server_info = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _drop(self, why: str, cause: "BaseException | None" = None):
        self.close()
        error = ServerUnavailable(why)
        if cause is not None:
            raise error from cause
        raise error

    # ------------------------------------------------------------------ #
    # Framing
    # ------------------------------------------------------------------ #
    def _send_frame(self, message: dict) -> None:
        if self._sock is None:
            raise ServerUnavailable("not connected")
        try:
            self._sock.sendall(encode_frame(message))
        except OSError as error:
            self._drop(f"send failed: {error}", error)

    def _next_frame(self) -> dict:
        """The next frame from the wire (or the decode backlog)."""
        while True:
            if self._inbox:
                frame = self._inbox.pop(0)
                if frame.get("type") == ERROR:
                    # The server is closing this connection on us.
                    self.close()
                    raise ProtocolError(
                        f"server error: {frame.get('reason')} "
                        f"{frame.get('detail', '')}".strip()
                    )
                return frame
            if self._sock is None:
                raise ServerUnavailable("not connected")
            try:
                data = self._sock.recv(65536)
            except TimeoutError as error:
                self._drop("timed out waiting for a frame", error)
            except OSError as error:
                self._drop(f"recv failed: {error}", error)
            if not data:
                self._drop("server closed the connection")
            try:
                self._inbox.extend(self._decoder.feed(data))
            except ProtocolError:
                self.close()
                raise

    # ------------------------------------------------------------------ #
    # Pipelined (no-retry) API
    # ------------------------------------------------------------------ #
    def send_request(
        self,
        request_id: str,
        model: str,
        image: int,
        deadline_ms: "float | None" = None,
    ) -> None:
        """Fire one request without waiting — lets server batches form."""
        self.connect()
        self._send_frame(make_request(request_id, model, image, deadline_ms))

    def collect(self, request_ids) -> dict:
        """Block until every id has its terminal response.

        Returns:
            ``{request_id: response_frame}``.  Raises
            :class:`ServerUnavailable` if the connection dies first —
            responses already received are lost to the caller, exactly
            like a real client crash (the soak harness exercises this).
        """
        wanted = set(request_ids)
        got = {}
        for request_id in tuple(wanted):
            if request_id in self._stash:
                got[request_id] = self._stash.pop(request_id)
                wanted.discard(request_id)
        while wanted:
            response = self._await_any_response()
            rid = response.get("id")
            if rid in wanted:
                got[rid] = response
                wanted.discard(rid)
            else:
                self._stash[rid] = response
        return got

    @property
    def stash(self) -> dict:
        """Responses received for ids nobody is waiting on.

        A response arriving for an id that already got its terminal ends
        up here — which is exactly how the soak harness detects a
        duplicate-terminal invariant breach from the client side.
        """
        return dict(self._stash)

    def _await_any_response(self) -> dict:
        while True:
            frame = self._next_frame()
            if frame.get("type") == RESPONSE:
                return frame
            # health/drain acks interleaved with responses: ignore here

    def _await_response(self, request_id: str) -> dict:
        if request_id in self._stash:
            return self._stash.pop(request_id)
        while True:
            response = self._await_any_response()
            if response.get("id") == request_id:
                return response
            self._stash[response.get("id")] = response

    # ------------------------------------------------------------------ #
    # Control frames
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """One liveness/readiness + counters snapshot from the server."""
        self.connect()
        self._send_frame(make_health())
        while True:
            frame = self._next_frame()
            if frame.get("type") == HEALTH_ACK:
                return frame
            if frame.get("type") == RESPONSE:
                self._stash[frame.get("id")] = frame

    def drain(self) -> dict:
        """Ask the server to drain gracefully; returns the ack."""
        self.connect()
        self._send_frame(make_drain())
        while True:
            frame = self._next_frame()
            if frame.get("type") == DRAIN_ACK:
                return frame
            if frame.get("type") == RESPONSE:
                self._stash[frame.get("id")] = frame

    # ------------------------------------------------------------------ #
    # Retrying API
    # ------------------------------------------------------------------ #
    def request(
        self,
        model: str,
        image: int,
        request_id: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> dict:
        """One request, retried to completion under the policy.

        Args:
            model: served model name.
            image: synthetic image index (the shared operand streams
                make this reproducible across server and oracle).
            request_id: stable base id; attempt ``n`` wires ``<id>~r<n>``
                so the server's duplicate guard never refuses a resend.
            deadline_ms: propagated to the server per attempt *and* used
                as the total client-side retry budget when the policy
                itself has no ``deadline_s``.

        Returns:
            The ``completed`` response frame (with output digest).

        Raises:
            RequestNotServed: terminal non-completion after retries.
            ServerUnavailable: no attempt got a terminal answer in budget.
        """
        if request_id is None:
            self._auto_id += 1
            request_id = f"{self.client}-{self._auto_id}"
        deadline_s = self.policy.deadline_s
        if deadline_s is None and deadline_ms is not None:
            deadline_s = deadline_ms / 1000.0
        attempt_box = {"n": 0}

        def one_attempt() -> dict:
            n = attempt_box["n"]
            attempt_box["n"] = n + 1
            wire_id = request_id if n == 0 else f"{request_id}~r{n}"
            self.connect()
            self._send_frame(make_request(wire_id, model, image, deadline_ms))
            response = self._await_response(wire_id)
            failure = classify_response(response)
            if failure is not None:
                hint = response.get("retry_after_ms")
                self._retry_after_hint_s = (
                    float(hint) / 1000.0 if hint else 0.0
                )
                raise failure(response)
            return response

        def classify(error: BaseException) -> bool:
            if isinstance(error, ProtocolError):
                return True  # server closed us out; a fresh connect may serve
            return isinstance(error, TransientError)

        return call_with_retry(
            one_attempt,
            self.policy,
            classify=classify,
            sleep=self._backpressure_sleep,
            deadline_s=deadline_s,
        )

    def _backpressure_sleep(self, delay_s: float) -> None:
        """Backoff sleep stretched (never shortened) by ``retry_after_ms``."""
        hint = min(self._retry_after_hint_s, self.policy.backoff_max_s)
        self._retry_after_hint_s = 0.0
        time.sleep(max(delay_s, hint))

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ServingClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
