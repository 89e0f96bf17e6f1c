"""Request serving over compiled inference sessions.

The serving layer wraps the batch-folding session runtime
(:mod:`repro.nn.session`) in long-running request servers.  One
clock-agnostic state machine, :mod:`repro.serving.core`, owns the whole
batching contract — admission control, dynamic batching with deadline
flushing and the load-shedding ladder, worker-death retries, and the
exactly-once terminal ledger — and two event loops run it:

* :mod:`repro.serving.daemon` — a deterministic virtual-clock event
  loop whose every run, injected kills included, replays bit for bit;
* :mod:`repro.serving.server` — an always-on TCP/Unix socket server on
  the wall clock, with :mod:`repro.serving.protocol` (length-prefixed
  JSON frames + output digests), :mod:`repro.serving.client`
  (deadline-aware retrying client), :mod:`repro.serving.health`
  (liveness/readiness + counters) and :mod:`repro.serving.netfaults`
  (seeded client-side chaos for the soak harness).

Both take the same :class:`WorkerKill` / :class:`FaultPlan`.
"""

from repro.serving.arrivals import Request, arrival_stream, poisson_arrivals
from repro.serving.clock import VirtualClock
from repro.serving.core import (
    ANY_WORKER,
    COMPLETED,
    FAILED,
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_FULL,
    REJECTED,
    BatchingCore,
    BatchQueue,
    FaultPlan,
    ShedPolicy,
    WorkerKill,
)
from repro.serving.daemon import (
    DEFAULT_BATCH_OVERHEAD_US,
    BatchRecord,
    DaemonReport,
    ServedResponse,
    ServingDaemon,
)
from repro.serving.client import (
    RequestBusy,
    RequestNotServed,
    ServerUnavailable,
    ServingClient,
)
from repro.serving.health import HealthMonitor
from repro.serving.netfaults import NetFaultSchedule
from repro.serving.pool import SessionPool
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    functional_run_digest,
)
from repro.serving.server import ServingServer, demo_definitions
from repro.serving.stats import (
    REPORTED_PERCENTILES,
    LatencyRecorder,
    exact_percentile,
)

__all__ = [
    "ANY_WORKER",
    "BatchQueue",
    "BatchRecord",
    "BatchingCore",
    "COMPLETED",
    "DEFAULT_BATCH_OVERHEAD_US",
    "DaemonReport",
    "FAILED",
    "FLUSH_DEADLINE",
    "FLUSH_DRAIN",
    "FLUSH_FULL",
    "FaultPlan",
    "FrameDecoder",
    "HealthMonitor",
    "LatencyRecorder",
    "NetFaultSchedule",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REJECTED",
    "REPORTED_PERCENTILES",
    "Request",
    "RequestBusy",
    "RequestNotServed",
    "ServedResponse",
    "ServerUnavailable",
    "ServingClient",
    "ServingDaemon",
    "ServingServer",
    "SessionPool",
    "ShedPolicy",
    "VirtualClock",
    "WorkerKill",
    "arrival_stream",
    "demo_definitions",
    "exact_percentile",
    "functional_run_digest",
    "poisson_arrivals",
]
