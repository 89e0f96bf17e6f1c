"""Requests and seeded arrival processes.

A :class:`Request` is one caller asking for one image through one model.
The daemon consumes requests as a time-ordered schedule; tests construct
schedules by hand (hand-placed arrival times are the easiest way to
force a specific interleaving), while the experiment and the benchmark
draw them from :func:`poisson_arrivals` — a seeded Poisson process whose
inter-arrival gaps come from a dedicated :class:`numpy.random.Generator`
stream, the same per-purpose-stream idiom as
:func:`repro.nn.synthetic.layer_stream`.  A schedule is a pure function
of its parameters, so every daemon run over it is replayable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Request:
    """One serving request: an image id for a model, arriving at a time.

    Attributes:
        request_id: caller-chosen id; the daemon rejects duplicates.
        model: model name (a zoo registry name, or a name resolvable by
            the session pool's extra definitions).
        image: synthetic image id — the ``image=`` argument of the
            per-image oracle :func:`repro.nn.functional.run_model_functional`.
        arrival_us: arrival time in microseconds.
        deadline_us: the caller's own deadline on the same clock; a
            request still queued when it passes is answered
            ``rejected(deadline)`` and never executed (None: no deadline).
    """

    request_id: str
    model: str
    image: int
    arrival_us: float
    deadline_us: "float | None" = None


def arrival_stream(seed: int, label: str = "arrivals") -> np.random.Generator:
    """The dedicated RNG of one arrival schedule.

    The label is folded into the seed entropy via CRC-32 so distinct
    schedules (e.g. per-model substreams) never share a stream, exactly
    like the per-layer operand streams in :mod:`repro.nn.synthetic`.
    """
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def poisson_arrivals(
    models: Sequence[str],
    count: int,
    mean_gap_us: float,
    seed: int = 2021,
    image_pool: int = 8,
    start_us: float = 0.0,
) -> tuple[Request, ...]:
    """A seeded Poisson request schedule over one or more models.

    Inter-arrival gaps are exponential with mean ``mean_gap_us``; each
    request picks a model and an image id uniformly from the given
    pools.  All draws come from one :func:`arrival_stream`, so the
    schedule is a pure function of ``(models, count, mean_gap_us, seed,
    image_pool, start_us)``.

    Args:
        models: candidate model names (uniform choice per request).
        count: number of requests to generate.
        mean_gap_us: mean inter-arrival gap in virtual microseconds.
        seed: schedule seed.
        image_pool: images are drawn from ``0..image_pool-1``.
        start_us: arrival time of the schedule origin.

    Returns:
        Requests in non-decreasing arrival order, ids ``r0000``, ...
    """
    if not models:
        raise ConfigError("poisson_arrivals needs at least one model")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if mean_gap_us <= 0:
        raise ConfigError(f"mean_gap_us must be > 0, got {mean_gap_us}")
    if image_pool < 1:
        raise ConfigError(f"image_pool must be >= 1, got {image_pool}")
    rng = arrival_stream(seed)
    gaps = rng.exponential(mean_gap_us, size=count)
    model_picks = rng.integers(0, len(models), size=count)
    image_picks = rng.integers(0, image_pool, size=count)
    requests = []
    now = float(start_us)
    for index in range(count):
        now += float(gaps[index])
        requests.append(
            Request(
                request_id=f"r{index:04d}",
                model=models[int(model_picks[index])],
                image=int(image_picks[index]),
                arrival_us=now,
            )
        )
    return tuple(requests)
