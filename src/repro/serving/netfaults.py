"""Seeded client-side chaos for the wall-clock serving front-end.

On the wall clock "at microsecond 1200" is not replayable, so chaos is
anchored to *logical positions* instead of times.  Worker kills are
batch positions (:class:`repro.serving.core.WorkerKill`, shared with
the virtual-clock daemon); this module covers the client side:

* :class:`NetFaultSchedule` assigns each logical client request one
  fault kind (drop the connection before/after sending, prepend a
  garbage or truncated frame, dribble the bytes out slowly) drawn from
  a seeded RNG, so a soak run's fault *sequence* is a pure function of
  its seed even though its timings are not.

The raw-socket attack helpers at the bottom speak deliberately broken
protocol — the soak harness uses them to prove a garbage frame costs
one connection, never the server.
"""

from __future__ import annotations

import socket
import time
import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ConfigError
from repro.serving.protocol import encode_frame

#: Client-side fault kinds a schedule can assign to a request.
FAULT_NONE = "none"
FAULT_DROP_BEFORE = "drop-before"  # connect, say hello, vanish pre-send
FAULT_DROP_AFTER = "drop-after"  # send the request, vanish pre-response
FAULT_GARBAGE = "garbage"  # hurl non-protocol bytes on a side connection
FAULT_TRUNCATE = "truncate"  # open a frame, never finish it
FAULT_SLOW = "slow"  # dribble the request out byte-wise

CLIENT_FAULT_KINDS = (
    FAULT_NONE,
    FAULT_DROP_BEFORE,
    FAULT_DROP_AFTER,
    FAULT_GARBAGE,
    FAULT_TRUNCATE,
    FAULT_SLOW,
)


# --------------------------------------------------------------------- #
# Client-side: seeded fault schedules
# --------------------------------------------------------------------- #
def chaos_stream(seed: int, label: str = "netfaults") -> np.random.Generator:
    """Dedicated RNG stream of one chaos schedule (per-purpose-stream
    idiom shared with :func:`repro.serving.arrivals.arrival_stream`)."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


@dataclass(frozen=True)
class NetFaultSchedule:
    """One fault kind per logical request index, drawn from a seed.

    ``kinds[i]`` is the fault injected around logical request ``i``;
    everything is a pure function of ``(seed, count, rates)``, so a soak
    scenario names its chaos by seed alone.
    """

    kinds: tuple[str, ...]

    @classmethod
    def draw(
        cls,
        seed: int,
        count: int,
        rates: "Mapping[str, float] | None" = None,
    ) -> "NetFaultSchedule":
        """Draw a schedule: each request independently picks a fault.

        Args:
            seed: chaos seed.
            count: number of logical requests covered.
            rates: probability per non-``none`` fault kind; the rest of
                the mass is fault-free.  Defaults to a mix that touches
                every kind in a few dozen requests.
        """
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        rates = dict(
            rates
            if rates is not None
            else {
                FAULT_DROP_BEFORE: 0.06,
                FAULT_DROP_AFTER: 0.06,
                FAULT_GARBAGE: 0.08,
                FAULT_TRUNCATE: 0.06,
                FAULT_SLOW: 0.06,
            }
        )
        unknown = set(rates) - set(CLIENT_FAULT_KINDS) | {
            k for k in rates if k == FAULT_NONE
        }
        if unknown:
            raise ConfigError(f"unknown fault kinds in rates: {sorted(unknown)}")
        total = sum(rates.values())
        if total > 1.0 or any(rate < 0 for rate in rates.values()):
            raise ConfigError("fault rates must be >= 0 and sum to <= 1")
        labels = list(rates) + [FAULT_NONE]
        weights = list(rates.values()) + [1.0 - total]
        rng = chaos_stream(seed)
        picks = rng.choice(len(labels), size=count, p=weights)
        return cls(kinds=tuple(labels[int(p)] for p in picks))

    def kind(self, index: int) -> str:
        """Fault kind of logical request ``index`` (none past the end)."""
        if 0 <= index < len(self.kinds):
            return self.kinds[index]
        return FAULT_NONE

    def counts(self) -> dict[str, int]:
        """How many of each kind the schedule holds (reporting aid)."""
        summary = {kind: 0 for kind in CLIENT_FAULT_KINDS}
        for kind in self.kinds:
            summary[kind] += 1
        return summary


# --------------------------------------------------------------------- #
# Raw-socket attacks
# --------------------------------------------------------------------- #
def open_raw_connection(address, timeout_s: float = 10.0) -> socket.socket:
    """Connect a bare socket to a server address.

    Args:
        address: ``(host, port)`` for TCP or a string/path for a Unix
            domain socket — the same convention as the server/client.
    """
    if isinstance(address, (tuple, list)):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        sock.connect(tuple(address))
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        sock.connect(str(address))
    return sock


def send_garbage(address, payload: bytes, timeout_s: float = 10.0) -> bytes:
    """Throw non-protocol bytes at the server; return whatever it answers.

    The server must answer with an ``error`` frame and/or close the
    connection — the return value is the raw reply bytes (possibly
    empty), never an exception for a server-side close.
    """
    sock = open_raw_connection(address, timeout_s)
    try:
        sock.sendall(payload)
        replies = bytearray()
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                replies.extend(chunk)
        except (TimeoutError, OSError):
            pass
        return bytes(replies)
    finally:
        sock.close()


def truncated_frame(message: dict, keep: int) -> bytes:
    """The first ``keep`` bytes of a valid frame — an announced-but-
    abandoned frame once the connection closes behind it."""
    frame = encode_frame(message)
    if not 0 <= keep < len(frame):
        raise ConfigError(
            f"keep must be in [0, {len(frame) - 1}], got {keep}"
        )
    return frame[:keep]


def garbage_bytes(seed: int, length: int = 64) -> bytes:
    """Deterministic junk that is extremely unlikely to parse as a frame.

    The first four bytes decode as a huge length prefix (>= 2^31), which
    trips the decoder's frame-size bound immediately.
    """
    rng = chaos_stream(seed, "garbage")
    body = rng.integers(0, 256, size=max(0, length - 4), dtype=np.uint8)
    return b"\xff\xff\xff\xff" + body.tobytes()


def slow_send(
    sock: socket.socket,
    data: bytes,
    chunk: int = 1,
    delay_s: float = 0.001,
) -> None:
    """Dribble ``data`` out ``chunk`` bytes at a time with real sleeps.

    Models a slow client; the server must neither block other
    connections behind it nor misparse the fragmented frames.
    """
    if chunk < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")
    for start in range(0, len(data), chunk):
        sock.sendall(data[start:start + chunk])
        if delay_s > 0:
            time.sleep(delay_s)
