"""One shard's admission state machine, and the fold side every host shares.

The sharded service has two hosts: :class:`~repro.service.daemon
.ShardedServiceDaemon` runs one :class:`ShardCore` per shard in-process,
each under its shard lock, and :class:`~repro.service.supervisor
.ShardSupervisor` runs one per shard *process*, reached over the socket
transport.  Neither host writes admission or recovery logic of its own:

* :class:`ShardCore` — one shard's admission ladder, accepted sets,
  pending count and deadline, its WAL-replay checks, and its side of a
  window close.  Pure: it takes no locks, opens no sockets, and writes
  through the journal its host injects.
* :class:`FoldHost` — the cross-shard side both hosts inherit: closed
  windows and the authoritative deadline, per-window admission tallies,
  the :class:`~repro.core.metrics.WindowSummary` each close journals,
  and the re-verification of every journaled fold close at restart.

Journal layout, shared by both hosts: one ``shard-NNN.wal`` per shard
(:data:`SHARD_PATTERN`) holding that shard's accepted submissions, and
one ``fold.wal`` (:data:`FOLD_NAME`) holding the authoritative closes.
"""

from __future__ import annotations

import numbers
import pathlib
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

from repro.core.metrics import WindowSummary
from repro.errors import ServiceError, WireError
from repro.service.wal import JournalState
from repro.service.wire import ShareSubmission

__all__ = [
    "Admission",
    "AdmissionResult",
    "FOLD_NAME",
    "FoldHost",
    "SHARD_PATTERN",
    "ServiceConfig",
    "ShardCore",
    "make_submission",
    "shard_journal_paths",
]

#: Shard journal filename pattern (index-stable across restarts).
SHARD_PATTERN = "shard-{index:03d}.wal"
#: The fold journal: authoritative window closes.
FOLD_NAME = "fold.wal"


class Admission(Enum):
    """Every answer the admission ladder can give."""

    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    LATE = "late"
    SHED = "shed"
    RETRY_AFTER = "retry_after"


@dataclass(frozen=True, slots=True)
class AdmissionResult:
    """One ``submit`` outcome.

    ``retry_after_s`` is set only for ``RETRY_AFTER`` (the transient
    outcomes); ``LATE``/``SHED``/``DUPLICATE`` are final for that
    ``(device, seq, window)`` and retrying them is pointless, which the
    load generator relies on.
    """

    admission: Admission
    window: int
    retry_after_s: float | None = None

    @property
    def accepted(self) -> bool:
        return self.admission is Admission.ACCEPTED

    @property
    def retryable(self) -> bool:
        return self.admission is Admission.RETRY_AFTER


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Service policy knobs (all admission behaviour lives here).

    Attributes:
        seed: campaign seed; the only entropy the window totals depend
            on besides the accepted sets.
        cells: MPC cells a single-shard window is sliced into (with
            several shards, each shard is one cell).
        queue_capacity: per-shard bound on pending (accepted, un-closed)
            submissions across that shard's open windows; beyond it, the
            shard answers ``RETRY_AFTER`` (closing a window frees space).
            Per shard on every transport: shard processes share no
            memory, so no transport can enforce a global bound.
        window_capacity: per-shard bound on one window's accepted
            submissions; beyond it, admission answers ``SHED`` (final —
            the window can never take more on that shard).
        retry_after_s: the hint attached to ``RETRY_AFTER`` answers.
        fsync: fsync the journal on every append (tests may disable for
            speed; the soak and CI smoke keep it on).
    """

    seed: int = 1
    cells: int = 1
    queue_capacity: int = 4096
    window_capacity: int = 1024
    retry_after_s: float = 0.05
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ServiceError(f"cells must be >= 1, got {self.cells}")
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.window_capacity < 1:
            raise ServiceError(
                f"window_capacity must be >= 1, got {self.window_capacity}"
            )
        # Every transport must answer the same hint: the socket reply
        # frame carries only a float, so an int is coerced here, once.
        if isinstance(self.retry_after_s, bool) or not isinstance(
            self.retry_after_s, numbers.Real
        ):
            raise ServiceError(
                f"retry_after_s must be a number, got {self.retry_after_s!r}"
            )
        object.__setattr__(self, "retry_after_s", float(self.retry_after_s))
        if not self.retry_after_s > 0:  # NaN fails this too
            raise ServiceError(
                f"retry_after_s must be > 0, got {self.retry_after_s}"
            )


def make_submission(device: int, seq: int, window: int, value: int) -> ShareSubmission:
    """Build one submission; a malformed one is a :class:`ServiceError`."""
    try:
        return ShareSubmission(device=device, seq=seq, window=window, value=value)
    except WireError as exc:
        raise ServiceError(f"malformed submission: {exc}") from exc


def shard_journal_paths(
    journal_dir: pathlib.Path, shards: int
) -> list[pathlib.Path]:
    """The shard WAL paths of a service directory, in shard order.

    Refuses a directory journaled with more shards than ``shards``:
    resharding would reroute devices away from their journaled shares.
    """
    if shards < 1:
        raise ServiceError(f"shards must be >= 1, got {shards}")
    for existing in journal_dir.glob("shard-*.wal"):
        try:
            index = int(existing.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        if index >= shards:
            raise ServiceError(
                f"journal dir {journal_dir} holds {existing.name} but this "
                f"service runs {shards} shard(s); resharding a journal "
                "directory is not supported"
            )
    return [journal_dir / SHARD_PATTERN.format(index=i) for i in range(shards)]


class ShardCore:
    """One shard's admission state machine.

    The ladder, in order: LATE (at or below this shard's deadline) ≺
    DUPLICATE (the ``(device, seq)`` identity is already journaled here)
    ≺ ``RETRY_AFTER`` while paused ≺ ``SHED`` at ``window_capacity`` ≺
    ``RETRY_AFTER`` at ``queue_capacity`` ≺ journal append ≺
    ``ACCEPTED``.  The append comes before the answer, so an accepted
    share is durable before anyone hears of it.

    ``journal`` is anything with ``append_submission`` (the shard WAL);
    a read-only core (recovery checks only) passes ``None``.
    """

    def __init__(
        self,
        index: int,
        shards: int,
        config: ServiceConfig,
        journal=None,
        deadline: int = -1,
        paused: bool = False,
    ):
        self.index = index
        self.shards = shards
        self.config = config
        self.journal = journal
        #: highest closed window; every window at or below it is LATE.
        self.deadline = deadline
        self.paused = paused
        #: (device, seq) identities ever journaled on this shard.
        self.seen: set[tuple[int, int]] = set()
        #: open window -> accepted submissions, append order.
        self.windows: dict[int, list[ShareSubmission]] = {}
        #: accepted submissions in open windows.
        self.pending = 0
        #: the accepted set of window ``deadline`` (answers a retried close).
        self._last_closed: list[ShareSubmission] = []

    @property
    def open_windows(self) -> tuple[int, ...]:
        return tuple(sorted(self.windows))

    def _check_route(self, submission: ShareSubmission) -> None:
        home = submission.device % self.shards
        if home != self.index:
            raise ServiceError(
                f"device {submission.device} routes to shard {home}, "
                f"not {self.index}"
            )

    def admit(self, submission: ShareSubmission) -> AdmissionResult:
        """Run one submission down the ladder; journal it if accepted."""
        self._check_route(submission)
        window = submission.window
        identity = (submission.device, submission.seq)
        if window <= self.deadline:
            admission = Admission.LATE
        elif identity in self.seen:
            admission = Admission.DUPLICATE
        elif self.paused:
            admission = Admission.RETRY_AFTER
        elif len(self.windows.get(window, ())) >= self.config.window_capacity:
            admission = Admission.SHED
        elif self.pending >= self.config.queue_capacity:
            admission = Admission.RETRY_AFTER
        else:
            self.journal.append_submission(submission)
            self.seen.add(identity)
            self.windows.setdefault(window, []).append(submission)
            self.pending += 1
            return AdmissionResult(Admission.ACCEPTED, window)
        if admission is Admission.RETRY_AFTER:
            return AdmissionResult(
                admission, window, retry_after_s=self.config.retry_after_s
            )
        return AdmissionResult(admission, window)

    def replay(self, state: JournalState) -> dict[int, list[ShareSubmission]]:
        """Load this shard's replayed journal.

        Windows above the deadline reopen; the accepted sets of windows
        at or below it are returned by window, for the fold side to
        re-verify.  Refuses an undecodable record, a close record (closes
        belong to the fold journal), a device that routes to another
        shard and a repeated identity.
        """
        if state.skipped:
            raise ServiceError(
                f"shard {self.index} journal holds {state.skipped} "
                "undecodable records"
            )
        if state.closes:
            raise ServiceError(
                f"shard {self.index} journal holds close records; closes "
                "belong to the fold journal"
            )
        closed: dict[int, list[ShareSubmission]] = {}
        for submission in state.accepted:
            self._check_route(submission)
            identity = (submission.device, submission.seq)
            if identity in self.seen:
                raise ServiceError(
                    f"shard {self.index} journal holds a duplicate "
                    f"submission identity {identity}"
                )
            self.seen.add(identity)
            if submission.window <= self.deadline:
                closed.setdefault(submission.window, []).append(submission)
            else:
                self.windows.setdefault(submission.window, []).append(submission)
                self.pending += 1
        self._last_closed = closed.get(self.deadline, [])
        return closed

    def check_close(self, window: int) -> None:
        """Refuse a close that would skip an open window."""
        skipped = [w for w in self.open_windows if w < window]
        if skipped:
            raise ServiceError(
                f"shard {self.index} cannot close window {window} past open "
                f"windows {skipped}; windows close in order"
            )

    def close(self, window: int) -> list[ShareSubmission]:
        """Move the deadline to ``window``; return its accepted set.

        Closing again the window the deadline sits on returns the same
        set (a close whose answer was lost is simply re-sent); closing
        anything older is refused.
        """
        if window == self.deadline:
            return self._last_closed
        if window < self.deadline:
            raise ServiceError(
                f"shard {self.index} already closed window {window}"
            )
        self.check_close(window)
        self._last_closed = self.windows.pop(window, [])
        self.pending -= len(self._last_closed)
        self.deadline = window
        return self._last_closed


class FoldHost:
    """The fold side of a sharded service, written once for both hosts.

    Holds the closed windows and the authoritative deadline, counts the
    per-window refusals every close reports, folds and journals each
    close, and at restart re-verifies every journaled fold close against
    a recomputation from the shard journals.  A host provides
    ``config``, ``shards``, ``_state`` (its state lock) and ``_fold``
    (the fold journal), and calls :meth:`_recover` once at start.  The
    fold function (``aggregate``) is passed on every call, so each host
    calls :func:`~repro.service.windows.aggregate_shards` through its
    own module.
    """

    # -- recovery --------------------------------------------------------------

    def _recover(
        self,
        fold: JournalState,
        shard_states: Sequence[JournalState],
        aggregate: Callable,
        journals: Sequence | None = None,
    ) -> list[ShardCore]:
        """Rebuild every shard core; re-verify every journaled fold close.

        Each close must count exactly the submissions the shard journals
        hold for its window and recompute to the same total; a shard
        journal holding shares for a window at or below the deadline
        without a close is refused too.  ``journals`` become the cores'
        injected journals (``None``: read-only cores, for a host whose
        shards replay their own journals).
        """
        if fold.skipped:
            raise ServiceError(
                f"fold journal holds {fold.skipped} undecodable records"
            )
        if fold.accepted:
            raise ServiceError(
                "fold journal holds submissions; shares belong to the shard "
                "journals"
            )
        self._closed: dict[int, WindowSummary] = {}
        self._deadline = max(fold.closes, default=-1)
        #: refusal kind -> window -> count, for each open window's close.
        self._tallies: dict[Admission, dict[int, int]] = {
            admission: {} for admission in Admission if admission is not Admission.ACCEPTED
        }
        #: open windows flagged coverage-degraded by the soak driver.
        self._degraded: set[int] = set()
        #: late refusals across all windows (incl. already-closed ones).
        self.late_total = 0
        #: submissions folded by the most recent close (store publication).
        self.last_close_submissions: tuple[ShareSubmission, ...] = ()
        cores = []
        closed_sets = []
        for index, state in enumerate(shard_states):
            core = ShardCore(
                index,
                self.shards,
                self.config,
                journal=None if journals is None else journals[index],
                deadline=self._deadline,
            )
            closed_sets.append(core.replay(state))
            cores.append(core)
        #: whether the service restarted over existing journals.
        self.recovered = bool(fold.closes) or any(core.seen for core in cores)
        for window, summary in sorted(fold.closes.items()):
            shard_subs = {
                index: sets.pop(window, []) for index, sets in enumerate(closed_sets)
            }
            count = sum(len(subs) for subs in shard_subs.values())
            if count != summary.accepted:
                raise ServiceError(
                    f"window {window} fold record counts {summary.accepted} "
                    f"submissions; shard journals hold {count}"
                )
            check = aggregate(
                shard_subs, self.config.seed, window, self.config.cells
            )
            if check.total != summary.total or check.expected != summary.expected:
                raise ServiceError(
                    f"window {window} journaled total {summary.total} does "
                    f"not match its recomputation {check.total}"
                )
            self._closed[window] = replace(summary, recovered=self.recovered)
        for index, sets in enumerate(closed_sets):
            if sets:
                raise ServiceError(
                    f"shard {index} journal holds submissions for window "
                    f"{min(sets)} past the recovered deadline {self._deadline}"
                )
        return cores

    # -- admission tallies (caller holds _state) -------------------------------

    def _tally(self, result: AdmissionResult) -> None:
        """Count one refusal against its window's close record."""
        if result.admission is Admission.LATE:
            self.late_total += 1
        per_window = self._tallies[result.admission]
        per_window[result.window] = per_window.get(result.window, 0) + 1

    def _check_open(self, window: int) -> None:
        if window <= self._deadline:
            raise ServiceError(f"window {window} is already closed")

    # -- window lifecycle ------------------------------------------------------

    def _fold_close(
        self,
        window: int,
        shard_subs: dict[int, list[ShareSubmission]],
        aggregate: Callable,
    ) -> WindowSummary:
        """Fold one window's shard sets, journal its close, then commit it.

        The window counts as closed only once the fold record is
        journaled: a crash before that leaves it open on restart.
        """
        started = time.perf_counter_ns()
        result = aggregate(shard_subs, self.config.seed, window, self.config.cells)
        close_latency_us = (time.perf_counter_ns() - started) // 1000
        with self._state:
            tallies = {
                admission: per_window.pop(window, 0)
                for admission, per_window in self._tallies.items()
            }
            summary = WindowSummary(
                window=window,
                accepted=sum(len(subs) for subs in shard_subs.values()),
                devices=len({s.device for subs in shard_subs.values() for s in subs}),
                duplicates=tallies[Admission.DUPLICATE],
                late=tallies[Admission.LATE],
                shed=tallies[Admission.SHED],
                retried=tallies[Admission.RETRY_AFTER],
                total=result.total,
                expected=result.expected,
                degraded=window in self._degraded,
                close_latency_us=close_latency_us,
                recovered=self.recovered,
            )
        self._fold.append_close(summary)
        with self._state:
            self._closed[window] = summary
            self._degraded.discard(window)
            self._deadline = window
            self.last_close_submissions = tuple(
                sorted(
                    (s for subs in shard_subs.values() for s in subs),
                    key=lambda s: (s.device, s.seq),
                )
            )
        return summary

    def shard_of(self, device: int) -> int:
        """The shard (journal, cell) a device's submissions live on."""
        return device % self.shards

    def mark_degraded(self, window: int) -> None:
        """Flag an open window as coverage-degraded at its deadline.

        Degradation is a coverage statement, never a correctness one:
        the close still aggregates exactly the accepted set.
        """
        with self._state:
            self._check_open(window)
            self._degraded.add(window)

    def window_records(self) -> list[WindowSummary]:
        """Closed windows, in window order."""
        with self._state:
            return [self._closed[w] for w in sorted(self._closed)]
