"""Virtual clock: the determinism anchor of the daemon.

The serving daemon never reads wall time.  Every timestamp it sees —
request arrivals, queue deadlines, batch completions, fault triggers —
comes from a :class:`VirtualClock` that only moves when the event loop
advances it.  Two runs that start from the same arrival schedule and
fault plan therefore observe *exactly* the same timeline, down to the
last microsecond, which is what lets the fault-injection suite replay
crash scenarios bit-identically and lets the ``serve_daemon`` experiment
pin its latency percentiles in a golden snapshot.

Wall-clock measurement (the serving-throughput benchmark) happens
*around* a daemon run with ``time.perf_counter``, never inside it.
"""

from __future__ import annotations

from repro.errors import ConfigError


class VirtualClock:
    """Monotonic virtual time in microseconds, advanced explicitly.

    Args:
        start_us: the timeline origin (default 0).
    """

    __slots__ = ("_now_us",)

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = float(start_us)

    @property
    def now_us(self) -> float:
        """Current virtual time, in microseconds."""
        return self._now_us

    def advance_to(self, when_us: float) -> float:
        """Move time forward to ``when_us`` (never backwards).

        Raises:
            ConfigError: ``when_us`` lies in the past — an event loop
                that tries to rewind time has lost determinism, so this
                fails loudly instead of silently clamping.
        """
        when_us = float(when_us)
        if when_us < self._now_us:
            raise ConfigError(
                f"virtual clock cannot rewind: now={self._now_us}, "
                f"requested {when_us}"
            )
        self._now_us = when_us
        return self._now_us

    def advance(self, delta_us: float) -> float:
        """Move time forward by a non-negative delta."""
        if delta_us < 0:
            raise ConfigError(f"negative clock delta: {delta_us}")
        return self.advance_to(self._now_us + float(delta_us))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now_us={self._now_us})"
