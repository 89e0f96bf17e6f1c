"""Wire protocol of the live serving front-end: length-prefixed JSON.

Every message on a serving connection is a *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON encoding one
object with a ``"type"`` field.  The framing is deliberately minimal —
no magic bytes, no checksum — because the robustness burden sits in the
decoder: :class:`FrameDecoder` consumes arbitrary byte chunks (partial
frames, several frames glued together, garbage) and either yields whole
well-formed messages or raises :class:`ProtocolError` with the stream
position intact, never crashing the server and never yielding a
half-parsed object.  The fuzz suite in
``tests/serving/test_protocol.py`` drives exactly that contract.

Connections open with a versioned handshake: the client's first frame
must be ``hello`` carrying :data:`PROTOCOL_VERSION`; the server answers
``hello_ack`` (or an ``error`` frame and a close on a version mismatch),
after which ``request`` frames flow client → server and terminal
``response`` frames flow back.  Completed responses do not ship the raw
output tensors — they carry :func:`functional_run_digest`, a SHA-256
over every layer's output bytes and statistics, which is what lets the
soak harness assert bit-identity against the functional oracle across a
process boundary without multi-megabyte frames.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Iterator

from repro.errors import ReproError

#: Version carried in the handshake; bump on any incompatible change.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload. Requests and responses are small
#: JSON documents; anything larger is a corrupt or hostile stream.
MAX_FRAME_BYTES = 1 << 20

#: Length prefix: 4-byte big-endian unsigned.
_LENGTH = struct.Struct(">I")

#: Frame types of the protocol (client → server unless noted).
HELLO = "hello"
HELLO_ACK = "hello_ack"  # server → client
REQUEST = "request"
RESPONSE = "response"  # server → client, terminal per request
HEALTH = "health"
HEALTH_ACK = "health_ack"  # server → client
DRAIN = "drain"
DRAIN_ACK = "drain_ack"  # server → client
ERROR = "error"  # server → client, protocol-level failure


class ProtocolError(ReproError, ValueError):
    """A malformed, oversized or out-of-contract frame or message."""


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #
def encode_frame(message: dict) -> bytes:
    """Serialize one message object into a length-prefixed frame.

    Raises:
        ProtocolError: the message is not a dict with a string ``type``,
            is not JSON-serializable, or exceeds :data:`MAX_FRAME_BYTES`.
    """
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolError("a frame encodes a dict with a string 'type'")
    try:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"unserializable frame: {error}") from error
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return _LENGTH.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder over an untrusted byte stream.

    Feed it whatever the socket produced — a byte, half a frame, five
    frames — and collect whole decoded messages.  Errors are permanent:
    once a stream has produced garbage (bad length, bad JSON, non-object
    payload) the connection's framing is unrecoverable, so the decoder
    raises on every subsequent ``feed`` as well.
    """

    __slots__ = ("max_frame_bytes", "_buffer", "_dead")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()
        self._dead: "str | None" = None

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    @property
    def mid_frame(self) -> bool:
        """True when the stream stopped inside an unfinished frame."""
        return len(self._buffer) > 0

    def feed(self, data: bytes) -> list[dict]:
        """Consume a chunk; return every whole message it completed.

        Raises:
            ProtocolError: the stream is (or already was) malformed.
        """
        if self._dead is not None:
            raise ProtocolError(self._dead)
        self._buffer.extend(data)
        messages: list[dict] = []
        while len(self._buffer) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length == 0:
                self._die("zero-length frame")
            if length > self.max_frame_bytes:
                self._die(
                    f"frame length {length} exceeds the "
                    f"{self.max_frame_bytes}-byte bound"
                )
            if len(self._buffer) < _LENGTH.size + length:
                break
            payload = bytes(self._buffer[_LENGTH.size:_LENGTH.size + length])
            del self._buffer[:_LENGTH.size + length]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                self._die("frame payload is not valid UTF-8 JSON")
            if not isinstance(message, dict) or not isinstance(
                message.get("type"), str
            ):
                self._die("frame payload is not an object with a 'type'")
            messages.append(message)
        return messages

    def _die(self, reason: str) -> None:
        self._dead = reason
        self._buffer.clear()
        raise ProtocolError(reason)


def recv_frames(sock, decoder: FrameDecoder) -> Iterator[dict]:
    """Yield decoded messages from a socket until it closes.

    A clean close mid-frame is itself a protocol violation (the peer
    abandoned an announced frame) and raises; a close at a frame
    boundary simply ends the iterator.
    """
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            if decoder.mid_frame:
                raise ProtocolError("connection closed inside a frame")
            return
        yield from decoder.feed(chunk)


# --------------------------------------------------------------------- #
# Message constructors / validators
# --------------------------------------------------------------------- #
def hello(client: str = "client") -> dict:
    """The handshake opener every connection must send first."""
    return {"type": HELLO, "protocol": PROTOCOL_VERSION, "client": str(client)}


def check_hello(message: dict) -> str:
    """Validate a ``hello``; return the client name.

    Raises:
        ProtocolError: wrong type, missing fields or version mismatch.
    """
    if message.get("type") != HELLO:
        raise ProtocolError(
            f"expected a {HELLO!r} frame first, got {message.get('type')!r}"
        )
    if message.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: server speaks {PROTOCOL_VERSION}, "
            f"client sent {message.get('protocol')!r}"
        )
    client = message.get("client", "client")
    if not isinstance(client, str):
        raise ProtocolError("hello 'client' must be a string")
    return client


def check_hello_ack(message: dict) -> dict:
    """Validate a ``hello_ack``; return it (the server's self-description).

    Raises:
        ProtocolError: not an ack, or a protocol version mismatch.
    """
    if message.get("type") != HELLO_ACK:
        raise ProtocolError(
            f"expected a {HELLO_ACK!r} frame, got {message.get('type')!r}"
        )
    if message.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: client speaks {PROTOCOL_VERSION}, "
            f"server sent {message.get('protocol')!r}"
        )
    return message


def make_health() -> dict:
    """A liveness/readiness probe frame."""
    return {"type": HEALTH}


def make_drain() -> dict:
    """A graceful-drain trigger frame (equivalent to SIGTERM)."""
    return {"type": DRAIN}


def make_request(
    request_id: str,
    model: str,
    image: int,
    deadline_ms: "float | None" = None,
) -> dict:
    """Build one ``request`` frame (validated on the way out)."""
    frame = {
        "type": REQUEST,
        "id": request_id,
        "model": model,
        "image": image,
        "deadline_ms": deadline_ms,
    }
    parse_request(frame)
    return frame


def parse_request(message: dict) -> "tuple[str, str, int, float | None]":
    """Validate a ``request``; return ``(id, model, image, deadline_ms)``.

    Raises:
        ProtocolError: any field is missing or out of contract.
    """
    request_id = message.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request 'id' must be a non-empty string")
    model = message.get("model")
    if not isinstance(model, str) or not model:
        raise ProtocolError("request 'model' must be a non-empty string")
    image = message.get("image")
    if isinstance(image, bool) or not isinstance(image, int) or image < 0:
        raise ProtocolError("request 'image' must be an integer >= 0")
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise ProtocolError("request 'deadline_ms' must be a number")
        deadline_ms = float(deadline_ms)
        if not deadline_ms > 0 or deadline_ms != deadline_ms:
            raise ProtocolError("request 'deadline_ms' must be > 0")
    return request_id, model, int(image), deadline_ms


def error_frame(reason: str, detail: str = "") -> dict:
    """A protocol-level error answer (the connection closes after it)."""
    return {"type": ERROR, "reason": reason, "detail": detail}


# --------------------------------------------------------------------- #
# Output identity across the wire
# --------------------------------------------------------------------- #
def functional_run_digest(run) -> str:
    """SHA-256 fingerprint of one per-image functional run.

    Covers every layer's name, output dtype/shape/bytes and the full
    ``DeviceStats`` repr, so two runs share a digest iff they are
    bit-identical in exactly the sense of the conformance suite's
    ``assert_runs_equal``.  Completed responses carry this digest and
    the soak harness compares it against the digest of the local
    ``run_model_functional`` oracle.
    """
    import numpy as np

    digest = hashlib.sha256()
    digest.update(run.model.encode())
    for layer in run.layers:
        if layer.output is None:
            raise ProtocolError(
                f"layer {layer.layer!r} has no output; run the oracle "
                "with keep_outputs=True"
            )
        output = np.ascontiguousarray(layer.output)
        digest.update(b"\0")
        digest.update(layer.layer.encode())
        digest.update(str(output.dtype).encode())
        digest.update(str(output.shape).encode())
        digest.update(memoryview(output))  # same bytes, no copy
        digest.update(repr(layer.stats).encode())
    return digest.hexdigest()
