"""The window journal: a typed write-ahead log for the aggregation daemon.

Every state transition the daemon must survive is one appended record:

* ``SUBMIT`` — a :class:`~repro.service.wire.ShareSubmission` was
  *accepted* (journaled **before** the submission is acknowledged, so an
  acknowledged share is durable by construction);
* ``WINDOW_CLOSE`` — a billing window was aggregated (the
  :class:`~repro.core.metrics.WindowSummary`, totals included, journaled
  **after** the aggregate is computed).

The byte substrate is :class:`repro.diskcache.AppendLog` — fsync'd,
CRC-framed, torn-tail tolerated — and the record encoding is the flat
scalar wire format of :mod:`repro.service.wire`.  Replay therefore never
depends on pickle or on wall clocks: a restarted daemon reconstructs its
accepted sets and closed windows purely from what was durably framed.

Service directories default to living under the disk-cache root
(``<cache_dir>/service/<name>/``, :func:`service_dir`) so service state
shares the cache's directory conventions and lifecycle tooling.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field

try:  # pragma: no cover - fcntl is POSIX-only; locks degrade to no-ops
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro import diskcache
from repro.core.metrics import WindowSummary
from repro.errors import ServiceError, WireError
from repro.service import wire
from repro.service.wire import ShareSubmission

__all__ = [
    "JournalState",
    "LOCK_NAME",
    "ServiceDirLock",
    "WindowJournal",
    "live_service_pid",
    "replay_journal",
]

#: The advisory lock file marking a service directory as live.
LOCK_NAME = "service.lock"


class ServiceDirLock:
    """One live service per directory, enforced with ``flock``.

    The holder (a :class:`~repro.service.daemon.ShardedServiceDaemon` or
    a :class:`~repro.service.supervisor.ShardSupervisor`) takes an
    exclusive non-blocking ``flock`` on ``<dir>/service.lock`` and
    writes its pid into the file; a second service over the same
    directory fails fast with :class:`ServiceError` instead of
    interleaving journal appends.  The lock is advisory and dies with
    the process, so a ``kill -9`` never wedges the directory — exactly
    the crash model the journals are built for.  Read-side tools probe
    it with :func:`live_service_pid` and degrade to checkpoint answers.
    """

    def __init__(self, directory: str | os.PathLike):
        self.path = pathlib.Path(directory) / LOCK_NAME
        self._handle = None

    @property
    def held(self) -> bool:
        return self._handle is not None

    def acquire(self) -> None:
        if self._handle is not None or fcntl is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            pid = _read_lock_pid(self.path)
            handle.close()
            raise ServiceError(
                f"service directory {self.path.parent} is already live"
                + (f" (locked by pid {pid})" if pid else "")
            ) from None
        handle.truncate(0)
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        self._handle = handle

    def release(self) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()


def _read_lock_pid(path: pathlib.Path) -> int | None:
    try:
        return int(path.read_text().strip() or 0) or None
    except (OSError, ValueError):
        return None


def live_service_pid(directory: str | os.PathLike) -> int | None:
    """The pid holding a directory's service lock, or ``None`` if free.

    Non-destructive probe: opens its own descriptor, tries the exclusive
    lock, and releases it immediately on success — the read side
    (``repro query``) uses this to decide between a full journal ingest
    and a checkpoint-only answer with a staleness warning.
    """
    path = pathlib.Path(directory) / LOCK_NAME
    if fcntl is None or not path.exists():
        return None
    try:
        with open(path, "r") as handle:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return _read_lock_pid(path) or -1
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    except OSError:
        return None
    return None


def replay_journal(path: str | os.PathLike) -> JournalState:
    """Read-only replay of one journal file (see :meth:`WindowJournal.replay`).

    Never truncates or opens the file for appending, so it is safe
    against a journal a live daemon (or another process) holds open —
    the read side the result store and ``repro query`` build on.  A
    missing file replays as empty.
    """
    return _decode(diskcache.read_log_records(path))


def _decode(payloads) -> JournalState:
    """Type a journal's valid record payloads.

    Records that frame correctly at the log layer but fail to decode as
    wire records (a version skew, a corrupted-but-CRC-colliding frame)
    are counted in ``skipped`` rather than aborting recovery: the
    journal's durability contract is per-record, and one bad record must
    not take down every window behind it.  So is a decodable wire record
    that is not a journal record (e.g. a result-store ``DeviceTotal``
    written to the wrong file): foreign, not fatal.
    """
    state = JournalState()
    for payload in payloads:
        try:
            record = wire.decode_record(payload)
        except WireError:
            state.skipped += 1
            continue
        if isinstance(record, ShareSubmission):
            state.accepted.append(record)
        elif isinstance(record, WindowSummary):
            state.closes[record.window] = record
        else:
            state.skipped += 1
    return state


@dataclass
class JournalState:
    """What a replayed journal says happened (the daemon's restart input).

    ``accepted`` holds every journaled submission in append order —
    including those of already-closed windows, so a recovering daemon
    can re-verify closed totals bit-for-bit.  ``closes`` maps window
    index to its journaled :class:`WindowSummary`.
    """

    accepted: list[ShareSubmission] = field(default_factory=list)
    closes: dict[int, WindowSummary] = field(default_factory=dict)
    skipped: int = 0


class WindowJournal:
    """Typed append/replay facade over one :class:`AppendLog` file."""

    def __init__(self, path: str | os.PathLike, fsync: bool = True):
        self.path = pathlib.Path(path)
        self._log = diskcache.AppendLog(self.path, fsync=fsync)

    @property
    def torn_bytes(self) -> int:
        """Bytes of torn tail dropped when the journal was opened."""
        return self._log.torn_bytes

    @property
    def records(self) -> int:
        """Valid records currently in the journal."""
        return self._log.records

    def append_submission(self, submission: ShareSubmission) -> int:
        """Durably journal one accepted submission (pre-acknowledgment)."""
        return self._log.append(wire.encode_record(submission))

    def append_close(self, summary: WindowSummary) -> int:
        """Durably journal one window close (post-aggregation)."""
        return self._log.append(wire.encode_record(summary))

    def replay(self) -> JournalState:
        """Reconstruct journal state from the valid record prefix."""
        return _decode(self._log.replay())

    def sync(self) -> None:
        """Explicit durability barrier."""
        self._log.sync()

    def close(self) -> None:
        """Close the underlying log file."""
        self._log.close()

    def __enter__(self) -> "WindowJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
