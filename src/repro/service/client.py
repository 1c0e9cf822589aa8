"""ServiceClient: the one API in front of the sharded service.

The soak driver, the smoke benches, tests and the CLI all go through
:class:`ServiceClient`, which wires the two service halves together
behind one surface:

* the **sharded host**: the in-process :class:`~repro.service.daemon
  .ShardedServiceDaemon` or the cross-process
  :class:`~repro.service.supervisor.ShardSupervisor` — per-shard WALs,
  fold journal, admission;
* the **result store** (:class:`~repro.service.store.ResultStore`):
  every window close is published to it, and :meth:`query` answers from
  it — including after a hard kill, because the client heals the store
  from the daemon's journals on construction.

The two transports share one interface and one admission state
machine (:class:`~repro.service.shard.ShardCore`, one per shard), so the
same submission sequence gets the same answers on each.
``transport="inproc"`` calls the thread-safe daemon inline (submission
admitted on the caller's thread; concurrent producers serialize on the
per-shard locks); ``transport="socket"`` replaces the in-process daemon
with a :class:`~repro.service.supervisor.ShardSupervisor` — one daemon
*process* per shard journal, reached over TCP localhost, supervised and
restarted on crash.  Both return the daemon's explicit
:class:`~repro.service.shard.AdmissionResult` and an acknowledged
``ACCEPTED`` means a journaled share — the socket adds a process
boundary, not new semantics.

Retry semantics are opt-in and transport-uniform: pass
``retry=RetryPolicy(...)`` to :meth:`submit` (or set a client-wide
default at construction) and transient outcomes — ``RETRY_AFTER``
backpressure on any transport, connection loss and deadline misses on
``socket`` — are absorbed by decorrelated-jitter re-sends under the
idempotent ``(device, seq)`` identity.

Restart-resume is the constructor: build a new client over the same
service directory and the daemon recovers (re-verifying journaled
closes bit-for-bit), the store replays its own log, and
``store.ingest`` idempotently pulls in any close the kill separated
from its store publish.
"""

from __future__ import annotations

import os
import pathlib

from repro.core.metrics import WindowSummary
from repro.errors import ServiceError
from repro.service.daemon import (
    AdmissionResult,
    ServiceConfig,
    ShardedServiceDaemon,
)
from repro.service.store import DeviceBill, ResultStore
from repro.service.transport import RetryPolicy

__all__ = ["ServiceClient", "query_store"]

#: Transports the client speaks; both present the same interface.
TRANSPORTS = ("inproc", "socket")

#: The result store's filename inside a service directory.
STORE_NAME = "results.store"


class ServiceClient:
    """One handle over the sharded host + result store.

    ``service_dir`` is the service instance's home: shard journals, the
    fold journal and the result store all live under it, so "the same
    service" across restarts means "the same directory".  ``shards`` and
    ``transport`` size the scale-out; defaults give one shard and
    in-process calls.
    """

    def __init__(
        self,
        config: ServiceConfig,
        service_dir: str | os.PathLike,
        shards: int = 1,
        transport: str = "inproc",
        retry: RetryPolicy | None = None,
        request_deadline_s: float = 5.0,
    ):
        if transport not in TRANSPORTS:
            raise ServiceError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        self.service_dir = pathlib.Path(service_dir)
        self.transport = transport
        self._stopped = False
        self._retry = retry
        self.daemon: ShardedServiceDaemon | None = None
        self.supervisor = None
        if transport == "socket":
            from repro.service.supervisor import ShardSupervisor

            self.supervisor = ShardSupervisor(
                config,
                self.service_dir,
                shards=shards,
                request_deadline_s=request_deadline_s,
            )
            self._core = self.supervisor
        else:
            self.daemon = ShardedServiceDaemon(
                config, self.service_dir, shards=shards
            )
            self._core = self.daemon
        self.store = ResultStore(
            self.service_dir / STORE_NAME, fsync=config.fsync
        )
        # Heal the store <-> fold gap: a kill between the fold append
        # and the store publish leaves a journaled close the store never
        # saw; ingest is idempotent, so this is a no-op otherwise.
        self.store.ingest(self.service_dir)

    # -- convenience passthroughs ----------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        return self._core.config

    @property
    def shards(self) -> int:
        return self._core.shards

    @property
    def recovered(self) -> bool:
        """Whether the daemon restarted over an existing journal set."""
        return self._core.recovered

    @property
    def paused(self) -> bool:
        return self._core.paused

    @property
    def pending(self) -> int:
        return self._core.pending

    @property
    def accepted_total(self) -> int:
        return self._core.accepted_total

    @property
    def accepted_per_shard(self) -> tuple[int, ...]:
        return self._core.accepted_per_shard

    @property
    def open_windows(self) -> tuple[int, ...]:
        return self._core.open_windows

    @property
    def journal_records(self) -> int:
        """Valid records across every shard journal plus the fold journal
        (on the socket transport, summed over the live shard processes)."""
        return self._core.journal_records

    @property
    def restarts(self) -> int:
        """Shard-process restarts the supervisor performed (socket only)."""
        return self.supervisor.restarts if self.supervisor is not None else 0

    def shard_of(self, device: int) -> int:
        return self._core.shard_of(device)

    # -- ingestion -------------------------------------------------------------

    def _submit_once(
        self, device: int, seq: int, window: int, value: int
    ) -> AdmissionResult:
        if self._stopped:
            raise ServiceError("service client is stopped")
        return self._core.submit(device, seq, window, value)

    def submit(
        self,
        device: int,
        seq: int,
        window: int,
        value: int,
        retry: RetryPolicy | None = None,
    ) -> AdmissionResult:
        """Submit one reading; blocks until its admission is decided.

        Same signature and semantics on every transport; on ``socket``
        it crosses the process boundary and may raise
        :class:`~repro.errors.TransportError`.

        With ``retry`` (or a client-wide policy from the constructor),
        transient outcomes are retried under the policy: ``RETRY_AFTER``
        answers on any transport, plus connection loss / deadline misses
        on ``socket`` — where a re-send answered ``DUPLICATE`` means the
        original landed, and is returned as-is (success for idempotent
        callers).
        """
        policy = retry if retry is not None else self._retry
        if policy is None:
            return self._submit_once(device, seq, window, value)
        return policy.run(
            lambda: self._submit_once(device, seq, window, value)
        )

    def pause(self) -> None:
        self._core.pause()

    def resume(self) -> None:
        self._core.resume()

    # -- socket-only fault/process hooks ---------------------------------------

    def _require_supervisor(self):
        if self.supervisor is None:
            raise ServiceError(
                "shard-process operations need transport='socket'"
            )
        return self.supervisor

    def kill_shard(self, index: int) -> int:
        """SIGKILL one shard process (socket transport only); the
        supervisor's monitor restarts it from its WAL."""
        return self._require_supervisor().kill_shard(index)

    def inject_drop(self, index: int, count: int) -> None:
        """Drop the next ``count`` admission acks on shard ``index``."""
        self._require_supervisor().inject_drop(index, count)

    def inject_delay(self, index: int, count: int, delay_s: float) -> None:
        """Delay the next ``count`` admission replies on shard ``index``."""
        self._require_supervisor().inject_delay(index, count, delay_s)

    # -- window lifecycle ------------------------------------------------------

    def close_window(self, window: int) -> WindowSummary:
        """Close one window across every shard and publish it to the store.

        Everything acknowledged before the close is in, everything after
        is late.
        """
        summary = self._core.close_window(window)
        if summary.window not in self.store.windows:
            self.store.publish(summary, self._core.last_close_submissions)
        return summary

    def mark_degraded(self, window: int) -> None:
        self._core.mark_degraded(window)

    def window_records(self) -> list[WindowSummary]:
        """Closed windows as the daemon holds them, in window order."""
        return self._core.window_records()

    # -- queries ---------------------------------------------------------------

    def query(
        self, device: int | None = None, window: int | None = None
    ) -> dict:
        """Query the result store: windows, one window, or one device.

        * no arguments — every journaled close (summaries) plus the full
          per-device billing extract;
        * ``window=N`` — that window's close summary and contributions;
        * ``device=D`` — that device's exact bill.

        Answers come from the store, i.e. from journaled
        ``WINDOW_CLOSE`` records only: a window lost to a hard kill
        before its fold landed is simply absent, never partial.
        """
        return query_store(self.store, device=device, window=window)

    def billing_extract(self) -> dict[int, DeviceBill]:
        return self.store.billing_extract()

    # -- retention -------------------------------------------------------------

    def compact(self, through_window: int) -> int:
        return self.store.compact(through_window)

    def retain(self, keep_windows: int) -> int:
        return self.store.retain(keep_windows)

    # -- lifecycle -------------------------------------------------------------

    def drain(self) -> list[WindowSummary]:
        """Graceful shutdown: close every open window, then stop."""
        summaries = [self.close_window(w) for w in self.open_windows]
        self.stop()
        return summaries

    def stop(self) -> None:
        """Graceful stop: sync and release everything."""
        if self._stopped:
            return
        self._stopped = True
        self._core.stop()
        self.store.sync()
        self.store.close()

    def hard_stop(self) -> None:
        """Simulate a hard kill: drop everything, no flush, no drain.

        A submission in flight is lost pre-ack, exactly as a real kill
        would lose it, so producers re-send under the ``(device, seq)``
        identity and nothing double-counts.
        """
        if self._stopped:
            return
        self._stopped = True
        self._core.hard_stop()
        self.store.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # An exception is unwinding the ``with`` body: a graceful
            # stop can itself raise, masking the real error.  Hard-stop
            # guarantees the shard processes die; journal-before-ack
            # makes that always safe.
            self.hard_stop()
        else:
            self.stop()


def query_store(
    store: ResultStore, device: int | None = None, window: int | None = None
) -> dict:
    """The one query shape over a result store (client and CLI share it)."""
    if device is not None and window is not None:
        raise ServiceError("query by device or by window, not both")
    if window is not None:
        summary = store.window(window)
        return {
            "window": window,
            "closed": summary is not None,
            "summary": None if summary is None else _summary_dict(summary),
            "contributions": [
                {"device": s.device, "seq": s.seq, "value": s.value}
                for s in store.contributions(window)
            ],
        }
    if device is not None:
        bill = store.billing_extract().get(device)
        return {
            "device": device,
            "total": bill.total if bill else 0,
            "windows": bill.windows if bill else 0,
            "through_window": bill.through_window if bill else -1,
        }
    return {
        "windows": [_summary_dict(s) for s in store.window_summaries()],
        "devices": {
            str(bill.device): {
                "total": bill.total,
                "windows": bill.windows,
                "through_window": bill.through_window,
            }
            for bill in store.billing_extract().values()
        },
    }


def _summary_dict(summary: WindowSummary) -> dict:
    return {
        "window": summary.window,
        "accepted": summary.accepted,
        "devices": summary.devices,
        "duplicates": summary.duplicates,
        "late": summary.late,
        "shed": summary.shed,
        "retried": summary.retried,
        "total": summary.total,
        "expected": summary.expected,
        "exact": summary.total == summary.expected,
        "degraded": summary.degraded,
        "recovered": summary.recovered,
    }
