"""The in-process aggregation daemon: one journal per shard, one fold journal.

:class:`ShardedServiceDaemon` is the long-lived form of a metering
campaign.  Devices stream :class:`~repro.service.wire.ShareSubmission`
records at it; each lands on its shard (``device % shards``), whose
:class:`~repro.service.shard.ShardCore` journals every accepted share
**before acknowledging it**.  At window close every shard's accepted set
becomes one cell of the cross-cell Shamir fold (:mod:`repro.service
.windows`) and the resulting :class:`~repro.core.metrics.WindowSummary`
is journaled to ``fold.wal`` — the authoritative close record.

The crash-safety contract, in order of events:

1. ``submit`` → shard journal append (fsync) → acknowledge ``ACCEPTED``.
   A crash between append and ack leaves a journaled-but-unacked share;
   the client re-sends and is answered ``DUPLICATE`` — never counted
   twice.
2. ``close_window`` → fold → journal ``WINDOW_CLOSE`` → retire the
   window from memory.  A crash before the close record lands leaves
   the window open; recovery re-closes it and — because the total is a
   pure function of the journaled accepted sets — lands on the same
   bits.  A crash after leaves a closed window; recovery *re-verifies*
   the journaled total against recomputation and raises
   :class:`~repro.errors.ServiceError` on any mismatch.
3. A torn tail (the frame being written when power died) is truncated
   by the journal on reopen; the unacked submission it held is the
   client's to re-send.

Admission is explicit: every ``submit`` returns an
:class:`~repro.service.shard.AdmissionResult` naming one of the
:class:`~repro.service.shard.Admission` outcomes — ``ACCEPTED``,
``DUPLICATE``, ``LATE`` (the window's deadline has passed; final),
``SHED`` (the shard's window cap is full; final) or ``RETRY_AFTER``
(transient pressure — ingest paused or the shard's pending queue at
capacity — with a hint for when to retry).  Backpressure never degrades
correctness: a share is either durably in a window's accepted set or
deterministically refused.
"""

from __future__ import annotations

import os
import pathlib

from repro.core.metrics import WindowSummary
from repro.lintkit.lockdep import ordered_lock
from repro.service import wal
from repro.service.shard import (
    FOLD_NAME,
    Admission,
    AdmissionResult,
    FoldHost,
    ServiceConfig,
    make_submission,
    shard_journal_paths,
)
from repro.service.windows import aggregate_shards

__all__ = [
    "Admission",
    "AdmissionResult",
    "ServiceConfig",
    "ShardedServiceDaemon",
]


class ShardedServiceDaemon(FoldHost):
    """The in-process host: one shard core and journal per shard.

    Concurrency: the class is **thread-safe**, and each shard's WAL is
    the serialization point — per-shard locks serialize journal-
    before-ack within a shard while producers for different shards run
    concurrently; window closes take every shard lock (in index order)
    so a close is a consistent cut across shards.  ``_state`` guards the
    fold side (:class:`~repro.service.shard.FoldHost`).

    ``config.window_capacity`` and ``config.queue_capacity`` bound each
    *shard* (see :class:`~repro.service.shard.ServiceConfig`).  With
    ``shards=1`` a window is sliced into ``config.cells`` cells.
    """

    def __init__(
        self,
        config: ServiceConfig,
        journal_dir: str | os.PathLike,
        shards: int = 1,
    ):
        self.config = config
        self.shards = shards
        self.journal_dir = pathlib.Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        paths = shard_journal_paths(self.journal_dir, shards)
        # Locks are created here, not in _init_state: every thread must
        # see one lock object per role for the object's whole lifetime,
        # and the lockdep watchdog learns each lock's rank at creation.
        # Canonical order: shard locks (ascending index) before _state.
        self._shard_locks = [
            ordered_lock("daemon.shard", index=index) for index in range(shards)
        ]
        self._state = ordered_lock("daemon.state")
        # One live service per directory: advisory flock, dies with the
        # process, so a kill -9 never wedges the directory.  Read-side
        # tools probe it to answer from checkpoints instead of failing.
        self._dirlock = wal.ServiceDirLock(self.journal_dir)
        self._dirlock.acquire()
        try:
            self._init_state(paths)
        except BaseException:
            self._dirlock.release()
            raise

    def _init_state(self, paths: list[pathlib.Path]) -> None:
        """Open the journals, rebuild state, verify (lock already held)."""
        fsync = self.config.fsync
        self._journals = [wal.WindowJournal(path, fsync=fsync) for path in paths]
        self._fold = wal.WindowJournal(self.journal_dir / FOLD_NAME, fsync=fsync)
        self._cores = self._recover(
            self._fold.replay(),
            [journal.replay() for journal in self._journals],
            aggregate_shards,
            journals=self._journals,
        )

    # -- admission -------------------------------------------------------------

    def submit(
        self, device: int, seq: int, window: int, value: int
    ) -> AdmissionResult:
        """Admit one submission on its shard; journal before acknowledging."""
        submission = make_submission(device, seq, window, value)
        shard = device % self.shards
        with self._shard_locks[shard]:
            result = self._cores[shard].admit(submission)
            if not result.accepted:
                # Tallied under the shard lock, so a close (which holds
                # every shard lock) never misses a refusal it precedes.
                with self._state:
                    self._tally(result)
        return result

    # -- backpressure / fault hooks --------------------------------------------

    def pause(self) -> None:
        """Stop admitting (``RETRY_AFTER``) until :meth:`resume`."""
        self._set_paused(True)

    def resume(self) -> None:
        self._set_paused(False)

    def _set_paused(self, paused: bool) -> None:
        for lock, core in zip(self._shard_locks, self._cores):
            with lock:
                core.paused = paused

    @property
    def paused(self) -> bool:
        return self._cores[0].paused

    @property
    def pending(self) -> int:
        """Accepted submissions whose window has not closed yet."""
        return sum(core.pending for core in self._cores)

    @property
    def open_windows(self) -> tuple[int, ...]:
        windows: set[int] = set()
        for lock, core in zip(self._shard_locks, self._cores):
            with lock:
                windows.update(core.windows)
        return tuple(sorted(windows))

    @property
    def accepted_per_shard(self) -> tuple[int, ...]:
        """Per-shard journaled identity counts (shard-aware fault anchors)."""
        return tuple(len(core.seen) for core in self._cores)

    @property
    def journal_records(self) -> int:
        """Valid records across every shard journal plus the fold journal."""
        return sum(j.records for j in self._journals) + self._fold.records

    # -- window lifecycle ------------------------------------------------------

    def _acquire_all(self) -> None:
        for lock in self._shard_locks:
            lock.acquire()

    def _release_all(self) -> None:
        for lock in reversed(self._shard_locks):
            lock.release()

    def close_window(self, window: int) -> WindowSummary:
        """Close one window everywhere: fold across shards, journal, retire.

        Closing window ``w`` moves the deadline to ``w``: every window at
        or below it — including empty ones that never saw a share —
        becomes ``LATE`` territory.  Windows close in increasing order.
        """
        self._acquire_all()
        try:
            with self._state:
                self._check_open(window)
            for core in self._cores:
                core.check_close(window)
            shard_subs = {core.index: core.close(window) for core in self._cores}
            return self._fold_close(window, shard_subs, aggregate_shards)
        finally:
            self._release_all()

    def stop(self) -> None:
        """Release every journal (graceful; windows stay as they are)."""
        for journal in self._journals:
            journal.sync()
            journal.close()
        self._fold.sync()
        self._fold.close()
        self._dirlock.release()

    def hard_stop(self) -> None:
        """Simulate a hard kill: drop every journal handle, no drain.

        Takes the shard locks so an in-flight append either completes
        (journaled ⇒ durable, ack or no ack) or never starts — the
        thread-level kill model is record-atomic, mirroring what the
        OS gives a real ``kill -9`` at the fsync'd frame boundary (the
        torn-tail tests cover the mid-write byte-level case directly).
        """
        self._acquire_all()
        try:
            for journal in self._journals:
                journal.close()
            self._fold.close()
        finally:
            self._release_all()
        self._dirlock.release()

    def __enter__(self) -> "ShardedServiceDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
