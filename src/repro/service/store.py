"""The queryable result store: a derived read-side over journaled closes.

:class:`ResultStore` is the query half of the service split: the daemon
owns admission and window closing; the store owns everything a billing
consumer asks afterwards — "what closed?", "what does device 7 owe?",
"give me the extract".  It is **derived state**: every fact in the store
traces to a journaled ``WINDOW_CLOSE`` (and the submissions that close
folded), so a store rebuilt from the daemon's journals after a hard kill
answers queries for exactly the windows that durably closed — never for
an in-flight window the kill erased.

The store has its own append log (same CRC framing and wire records as
the window journal) holding four record kinds:

* ``SUBMIT`` — one window's accepted contributions (the billing
  evidence), written *before* their close record;
* ``WINDOW_CLOSE`` — the close itself.  A close record **commits** the
  window: contributions with no trailing close are a torn publish and
  are dropped on replay, so publishes are atomic per window.
* ``DEVICE_TOTAL`` — compaction output.  :meth:`compact` folds retired
  windows' contributions into one :class:`~repro.service.wire
  .DeviceTotal` per device and rewrites the log; because integer sums
  merge associatively, any compaction schedule yields bit-for-bit the
  same :meth:`device_total` — the retention contract the lifecycle tests
  pin.
* ``STORE_CHECKPOINT`` — the compaction horizon.  Journal ingest skips
  windows at or below it, so re-ingesting a daemon directory after a
  compaction can never resurrect (and double-bill) a retired window.

Ingest is **idempotent**: :meth:`ingest` replays daemon journals through
the read-only scanner (:func:`repro.service.wal.replay_journal` — never
truncates, never opens for append, safe against a live daemon) and
skips windows the store already holds, so re-running ingest after a
crash or against an already-ingested directory is a no-op.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field

from repro import diskcache
from repro.core.metrics import WindowSummary
from repro.errors import ServiceError, WireError
from repro.service import wal, wire
from repro.service.wire import DeviceTotal, ShareSubmission, StoreCheckpoint

__all__ = ["DeviceBill", "ResultStore"]


@dataclass(frozen=True, slots=True)
class DeviceBill:
    """One device's billing answer: exact total plus its evidence span.

    ``total`` sums the device's accepted readings over every window the
    store holds for it — compacted spans and live contributions alike.
    ``windows`` counts the windows the device contributed to and
    ``through_window`` is the newest of them, so a consumer can tell a
    stale extract from a current one.
    """

    device: int
    total: int
    windows: int
    through_window: int


@dataclass
class _WindowEntry:
    summary: WindowSummary
    contributions: list[ShareSubmission] = field(default_factory=list)


class ResultStore:
    """Append-log-backed, queryable store of closed billing windows."""

    def __init__(
        self,
        path: str | os.PathLike,
        fsync: bool = True,
        readonly: bool = False,
    ):
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self.readonly = readonly
        # Read-only stores never open the log for append (safe against
        # a live service's store); publishes update memory only, so
        # `ingest` still builds a complete queryable view.
        self._log = (
            None if readonly else diskcache.AppendLog(self.path, fsync=fsync)
        )
        #: window -> close summary + its contributions (uncompacted span).
        self._windows: dict[int, _WindowEntry] = {}
        #: device -> compacted DeviceTotal (retired-window span).
        self._compacted: dict[int, DeviceTotal] = {}
        #: newest retired window (-1 = nothing compacted yet); windows at
        #: or below the horizon can never be re-published or re-ingested.
        self.horizon = -1
        self.skipped = 0
        self._replay()

    # -- state reconstruction --------------------------------------------------

    def _replay(self) -> None:
        pending: list[ShareSubmission] = []
        payloads = (
            diskcache.read_log_records(self.path)
            if self._log is None
            else self._log.replay()
        )
        for payload in payloads:
            try:
                record = wire.decode_record(payload)
            except WireError:
                self.skipped += 1
                continue
            if isinstance(record, ShareSubmission):
                pending.append(record)
            elif isinstance(record, WindowSummary):
                contributions = [s for s in pending if s.window == record.window]
                pending = [s for s in pending if s.window != record.window]
                self._windows[record.window] = _WindowEntry(
                    record, contributions
                )
            elif isinstance(record, DeviceTotal):
                self._compacted[record.device] = self._merge_total(
                    self._compacted.get(record.device), record
                )
            elif isinstance(record, StoreCheckpoint):
                self.horizon = max(self.horizon, record.through_window)
            else:  # pragma: no cover - registry holds exactly four kinds
                self.skipped += 1
        # Contributions with no committing close record are a torn
        # publish — the crash hit between the SUBMIT frames and their
        # WINDOW_CLOSE — and are discarded, keeping publishes atomic.
        self.skipped += len(pending)

    @staticmethod
    def _merge_total(
        existing: DeviceTotal | None, incoming: DeviceTotal
    ) -> DeviceTotal:
        if existing is None:
            return incoming
        return DeviceTotal(
            device=incoming.device,
            through_window=max(existing.through_window, incoming.through_window),
            windows=existing.windows + incoming.windows,
            total=existing.total + incoming.total,
        )

    # -- write side ------------------------------------------------------------

    def publish(
        self, summary: WindowSummary, contributions: list[ShareSubmission] | tuple
    ) -> None:
        """Record one closed window and the contributions it folded.

        Contribution frames land before the close frame; the close
        commits them.  Publishing an already-held window raises — the
        store is append-only per window.
        """
        if summary.window in self._windows:
            raise ServiceError(
                f"window {summary.window} is already in the result store"
            )
        if summary.window <= self.horizon:
            raise ServiceError(
                f"window {summary.window} is behind the store's compaction "
                f"horizon {self.horizon}"
            )
        for submission in contributions:
            if submission.window != summary.window:
                raise ServiceError(
                    f"contribution of window {submission.window} published "
                    f"under close of window {summary.window}"
                )
        if self._log is not None:
            # One fsync per window: the close frame commits the staged
            # contributions, and replay drops contributions with no close.
            self._log.stage(wire.encode_record(s) for s in contributions)
            self._log.append(wire.encode_record(summary))
        self._windows[summary.window] = _WindowEntry(
            summary, list(contributions)
        )

    def ingest(self, journal_dir: str | os.PathLike) -> int:
        """Idempotently pull journaled closes out of a daemon directory.

        Reads every ``*.wal`` under ``journal_dir`` (a service directory)
        through the read-only scanner, commits each close record the store
        does not already hold together with its journaled submissions,
        and returns how many windows were added.  Only durably journaled
        closes are visible — a window a hard kill left open contributes
        nothing, which is exactly the query-after-kill contract.
        """
        closes: dict[int, WindowSummary] = {}
        submissions: list[ShareSubmission] = []
        for path in sorted(pathlib.Path(journal_dir).glob("*.wal")):
            state = wal.replay_journal(path)
            closes.update(state.closes)
            submissions.extend(state.accepted)
        added = 0
        for window in sorted(closes):
            if window in self._windows or window <= self.horizon:
                continue
            contributions = sorted(
                (s for s in submissions if s.window == window),
                key=lambda s: (s.device, s.seq),
            )
            self.publish(closes[window], contributions)
            added += 1
        return added

    # -- retention / compaction ------------------------------------------------

    def compact(self, through_window: int) -> int:
        """Fold windows ``<= through_window`` into per-device totals.

        Contributions of retired windows merge into ``DEVICE_TOTAL``
        records (associative integer sums, so any compaction schedule
        bills identically); close summaries of retired windows are
        dropped; the log is rewritten atomically (tmp + ``os.replace``).
        Returns how many windows were retired.
        """
        if self.readonly:
            raise ServiceError("cannot compact a read-only result store")
        retired = sorted(w for w in self._windows if w <= through_window)
        if not retired:
            return 0
        folded: dict[int, DeviceTotal] = dict(self._compacted)
        for window in retired:
            for submission in self._windows[window].contributions:
                folded[submission.device] = self._merge_total(
                    folded.get(submission.device),
                    DeviceTotal(
                        device=submission.device,
                        through_window=window,
                        windows=1,
                        total=submission.value,
                    ),
                )
        horizon = max(self.horizon, retired[-1])
        tmp_path = self.path.with_suffix(self.path.suffix + ".compact")
        tmp_path.unlink(missing_ok=True)
        # Nobody reads the temporary log before the replace, so its
        # records are staged and made durable by the one sync below.
        records = [StoreCheckpoint(horizon)]
        records.extend(folded[device] for device in sorted(folded))
        for window in sorted(self._windows):
            if window in retired:
                continue
            entry = self._windows[window]
            records.extend(entry.contributions)
            records.append(entry.summary)
        rewritten = diskcache.AppendLog(tmp_path, fsync=False)
        rewritten.stage(wire.encode_record(record) for record in records)
        rewritten.sync()
        rewritten.close()
        self._log.close(sync=False)  # retired by the replace below
        os.replace(tmp_path, self.path)
        self._log = diskcache.AppendLog(self.path, fsync=self.fsync)
        self._compacted = folded
        self.horizon = horizon
        for window in retired:
            del self._windows[window]
        return len(retired)

    def retain(self, keep_windows: int) -> int:
        """Retention sweep: keep the newest ``keep_windows`` live windows.

        Everything older compacts into device totals; billing answers
        are unchanged bit for bit.  Returns how many windows retired.
        """
        if keep_windows < 0:
            raise ServiceError(f"keep_windows must be >= 0, got {keep_windows}")
        live = sorted(self._windows)
        if len(live) <= keep_windows:
            return 0
        cutoff = live[len(live) - keep_windows - 1]
        return self.compact(cutoff)

    # -- query side ------------------------------------------------------------

    @property
    def windows(self) -> tuple[int, ...]:
        """Window indices the store holds live (uncompacted) closes for."""
        return tuple(sorted(self._windows))

    def window(self, window: int) -> WindowSummary | None:
        """One live window's close summary (``None`` once compacted/absent)."""
        entry = self._windows.get(window)
        return entry.summary if entry else None

    def window_summaries(self) -> list[WindowSummary]:
        """Every live close summary, in window order."""
        return [self._windows[w].summary for w in sorted(self._windows)]

    def contributions(self, window: int) -> list[ShareSubmission]:
        """One live window's accepted contributions, ``(device, seq)`` order."""
        entry = self._windows.get(window)
        if entry is None:
            return []
        return sorted(entry.contributions, key=lambda s: (s.device, s.seq))

    def device_total(self, device: int) -> int:
        """One device's exact billed total across the store's whole span."""
        total = 0
        compacted = self._compacted.get(device)
        if compacted is not None:
            total += compacted.total
        for entry in self._windows.values():
            for submission in entry.contributions:
                if submission.device == device:
                    total += submission.value
        return total

    def billing_extract(self) -> dict[int, DeviceBill]:
        """The full per-device extract: device -> exact bill + span."""
        bills: dict[int, list[int]] = {}
        for device, compacted in self._compacted.items():
            bills[device] = [
                compacted.total, compacted.windows, compacted.through_window
            ]
        for window in sorted(self._windows):
            for submission in self._windows[window].contributions:
                bill = bills.setdefault(submission.device, [0, 0, -1])
                bill[0] += submission.value
                bill[1] += 1
                bill[2] = max(bill[2], window)
        return {
            device: DeviceBill(
                device=device,
                total=total,
                windows=windows,
                through_window=through,
            )
            for device, (total, windows, through) in sorted(bills.items())
        }

    # -- lifecycle -------------------------------------------------------------

    def sync(self) -> None:
        """Explicit durability barrier (no-op on a read-only store)."""
        if self._log is not None:
            self._log.sync()

    def close(self) -> None:
        """Close the underlying log file (no-op on a read-only store)."""
        if self._log is not None:
            self._log.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
