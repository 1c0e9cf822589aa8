"""MPC-as-a-service: the sharded, crash-safe aggregation service.

Everything below this package turns the repo's batch campaigns into a
*service*: devices stream share submissions continuously, the daemon
batches them into per-billing-window cross-cell aggregation rounds, and
the whole thing is engineered to be killed at any instant and resume
with bit-identical window totals.

The one front door is :class:`ServiceClient` — the sharded host and the
result store behind a single API, over one of two transports
(``inproc`` or ``socket``).  Layers (each importable on its own):

* :mod:`repro.service.wire` — the flat-scalar wire format (derived from
  the :class:`~repro.core.metrics.RoundSummary` encoding discipline)
  for share submissions, window-close and device-total records.
* :mod:`repro.service.wal` — the window journal: a typed write-ahead
  log over :class:`repro.diskcache.AppendLog` (fsync'd, CRC-framed,
  torn-tail tolerant), plus the read-only journal scanner.
* :mod:`repro.service.windows` — deterministic window aggregation:
  sliced cells (:func:`~repro.service.windows.aggregate_window`) and the
  shard-as-cell fold (:func:`~repro.service.windows.aggregate_shards`).
* :mod:`repro.service.shard` — :class:`~repro.service.shard.ShardCore`,
  the one admission state machine every transport runs per shard
  (accepted / retry-after / shed / late / duplicate, deadlines, WAL
  replay checks), and :class:`~repro.service.shard.FoldHost`, the
  fold side both hosts share (close records, tallies, recovery
  re-verification).
* :mod:`repro.service.daemon` — :class:`ShardedServiceDaemon`: the
  in-process host, one shard core and WAL per shard plus a fold
  journal for closes, thread-safe, graceful stop vs hard-kill
  recovery.
* :mod:`repro.service.store` — :class:`ResultStore`: the queryable,
  compactable read-side over journaled window closes.
* :mod:`repro.service.client` — :class:`ServiceClient`: the one API.
* :mod:`repro.service.loadgen` — the deterministic metering load
  generator feeding soaks, benches and CI smoke.
* :mod:`repro.service.transport` — the length-prefixed socket
  transport: framed records over TCP localhost, per-request deadlines,
  and the client-side :class:`RetryPolicy` (decorrelated-jitter
  backoff, ``retry_after_s`` honoured, total-deadline capped).
* :mod:`repro.service.supervisor` — :class:`ShardSupervisor`: the
  cross-process host, one OS process per shard core plus a fold
  coordinator, heartbeat
  liveness monitoring, and WAL-replay restart of crashed shards into
  bit-identical state.
* :mod:`repro.service.soak` — the soak driver interpreting
  ``kill_daemon`` / ``pause_ingest`` (and, over the socket transport,
  ``kill_shard_process`` / ``drop_connection`` / ``delay_response``)
  fault events against a live service.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import (
    Admission,
    AdmissionResult,
    ServiceConfig,
    ShardedServiceDaemon,
)
from repro.service.store import DeviceBill, ResultStore
from repro.service.transport import RetryPolicy
from repro.service.wire import ShareSubmission
from repro.service.wal import WindowJournal

__all__ = [
    "Admission",
    "AdmissionResult",
    "DeviceBill",
    "ResultStore",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ShardSupervisor",
    "ShardedServiceDaemon",
    "ShareSubmission",
    "WindowJournal",
]


def __getattr__(name: str):
    if name == "ShardSupervisor":
        # Lazy: pulls in multiprocessing, which most importers (and the
        # inproc transport) never need.
        from repro.service.supervisor import ShardSupervisor

        return ShardSupervisor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
