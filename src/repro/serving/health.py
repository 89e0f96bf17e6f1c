"""Liveness/readiness state and operational counters of the live server.

The wall-clock server separates the two questions an orchestrator asks:

* **Liveness** — is the process responsive at all?  True from start-up
  until the server has fully stopped; a live-but-draining server still
  answers health probes.
* **Readiness** — should new traffic be routed here?  True only in the
  ``ready`` state: a starting server (sessions still compiling) and a
  draining server (finishing in-flight work, refusing arrivals) are
  live but *not* ready.

State advances monotonically ``starting → ready → draining → stopped``
(a hard stop may skip ``draining``).  :class:`HealthMonitor` guards the
state and the operational counters behind one lock; the server answers
``health`` frames straight from :meth:`snapshot`, so a probe never
touches the request path.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigError
from repro.serving.core import COMPLETED, FAILED, REJECTED

#: Lifecycle states, in order.
STARTING = "starting"
READY = "ready"
DRAINING = "draining"
STOPPED = "stopped"

_ORDER = (STARTING, READY, DRAINING, STOPPED)

#: Counters every monitor starts with (extended freely via increment).
#: The core's own tallies (``retries``, ``violations``) join them in the
#: server's health answer.
_BASE_COUNTERS = (
    "connections",
    "handshakes",
    "protocol_errors",
    "accepted",
    "refused",
    "completed",
    "failed",
    "rejected_deadline",
    "batches",
    "undeliverable",
)

#: The counter each ledgered terminal status bumps (a ledgered rejection
#: is always a request whose own deadline expired in the queue).
TERMINAL_COUNTERS = {
    COMPLETED: "completed",
    FAILED: "failed",
    REJECTED: "rejected_deadline",
}


class HealthMonitor:
    """Thread-safe lifecycle state machine plus operational counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = STARTING
        self._counters: dict[str, int] = {name: 0 for name in _BASE_COUNTERS}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, target: str) -> None:
        with self._lock:
            if _ORDER.index(target) < _ORDER.index(self._state):
                raise ConfigError(
                    f"health state cannot move backwards: "
                    f"{self._state} -> {target}"
                )
            self._state = target

    def mark_ready(self) -> None:
        """Sessions compiled, listener bound: route traffic here."""
        self._transition(READY)

    def begin_drain(self) -> None:
        """Stop admitting, finish in-flight work (idempotent)."""
        with self._lock:
            if self._state in (DRAINING, STOPPED):
                return
        self._transition(DRAINING)

    def mark_stopped(self) -> None:
        """The server has exited its loops; the process may exit."""
        with self._lock:
            self._state = STOPPED

    @property
    def live(self) -> bool:
        """Liveness probe: the process still answers."""
        with self._lock:
            return self._state != STOPPED

    @property
    def ready(self) -> bool:
        """Readiness probe: new traffic is welcome."""
        with self._lock:
            return self._state == READY

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def increment(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def count(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, **extra) -> dict:
        """One consistent view of state + counters for a health answer."""
        with self._lock:
            body = {
                "state": self._state,
                "live": self._state != STOPPED,
                "ready": self._state == READY,
            }
            body.update(self._counters)
        body.update(extra)
        return body
