"""Persisted commissioning cache: deployment artifacts on disk.

The process-wide pools (link tables, S4 bootstraps, codec key schedules)
amortise commissioning *within* one process, which is why the first
campaign in a process — and every freshly spawned campaign worker — still
pays the full reference-fidelity bootstrap.  This module closes that gap:
artifacts that are pure functions of the deployment description are
persisted to a versioned on-disk cache, so a cold process (or a
``ProcessPoolExecutor`` spawn worker) loads them instead of re-running
the reference MiniCast probe loop.

Layout and contract:

* Directory: ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``; overridable
  at runtime with :func:`set_cache_dir` (the CLI's ``--cache-dir``).
* One pickle file per entry, named ``<kind>-<content-hash>.pkl``.  The
  content hash (:func:`content_key`) covers *everything* the artifact is
  derived from — topology positions, channel parameters, radio timings,
  protocol knobs — so a cache hit is bit-identical to a fresh build by
  construction and entries can never go stale through code-external
  changes.
* Each file carries a header with :data:`CACHE_VERSION`; entries written
  by an incompatible library version are ignored (and rebuilt), as are
  corrupt or truncated files.  Writes are atomic (temp file +
  ``os.replace``) so a crashed writer can at worst leave an ignorable
  temp file behind.
* The cache is an *optimisation*, never a correctness dependency: every
  read/write failure degrades to recomputation.  It is active only when
  the fast path is on (consumers gate on ``fastpath.enabled()``) and can
  be switched off wholesale with ``REPRO_DISK_CACHE=0`` or
  :func:`set_enabled`.
* Lifecycle: long-running campaign services accumulate entries for
  deployments they will never see again, so :func:`sweep` applies an
  LRU / max-age policy — entries untouched for
  ``REPRO_CACHE_MAX_AGE_DAYS`` are dropped, and the newest
  ``REPRO_CACHE_MAX_ENTRIES`` survive when the directory outgrows its
  cap.  Recency is file mtime: :func:`load` touches entries it hits, so
  "old" means *unused*, not merely *written long ago*.  The sweep runs
  automatically the first time a process writes to a directory and can
  be invoked explicitly by maintenance jobs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pathlib
import pickle
import struct
import tempfile
import time
import zlib
from typing import Any, Callable, Iterable, Iterator

#: Bump when the serialized form of any cached artifact changes shape.
CACHE_VERSION = 1

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLED = "REPRO_DISK_CACHE"
_ENV_MAX_ENTRIES = "REPRO_CACHE_MAX_ENTRIES"
_ENV_MAX_AGE_DAYS = "REPRO_CACHE_MAX_AGE_DAYS"

#: Default cap on live entries per directory (override with
#: ``REPRO_CACHE_MAX_ENTRIES``); also bounds writes per process.
MAX_ENTRIES = 8192

#: A ``.tmp-*`` file older than this is a crashed writer's leftover, not
#: an in-flight write (atomic writes complete in milliseconds), and is
#: removed by :func:`sweep`.
TMP_MAX_AGE_S = 3600.0

_dir_override: pathlib.Path | None = None
_enabled_override: bool | None = None
_entry_budget: dict[str, int] = {}


def max_entries() -> int:
    """LRU capacity per cache directory (env override > default)."""
    raw = os.environ.get(_ENV_MAX_ENTRIES, "").strip()
    if not raw:
        return MAX_ENTRIES
    try:
        value = int(raw)
    except ValueError:
        return MAX_ENTRIES
    return max(1, value)


def max_age_days() -> float | None:
    """Expiry age for unused entries, or ``None`` when age never expires."""
    raw = os.environ.get(_ENV_MAX_AGE_DAYS, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def cache_dir() -> pathlib.Path:
    """The active cache directory (override > env > ``~/.cache/repro``)."""
    if _dir_override is not None:
        return _dir_override
    env = os.environ.get(_ENV_DIR, "").strip()
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def set_cache_dir(path: str | os.PathLike | None) -> None:
    """Override the cache directory (``None`` restores env/default)."""
    global _dir_override
    _dir_override = pathlib.Path(path) if path is not None else None


def enabled() -> bool:
    """Whether the on-disk cache is active."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(_ENV_ENABLED, "1").strip().lower() not in {
        "0",
        "false",
        "off",
        "no",
    }


def set_enabled(flag: bool | None) -> bool | None:
    """Force the cache on/off (``None`` restores env); returns previous."""
    global _enabled_override
    previous = _enabled_override
    _enabled_override = flag if flag is None else bool(flag)
    return previous


# -- content hashing -----------------------------------------------------------


def _encode(part: Any, update: Callable[[bytes], None]) -> None:
    """Feed a canonical, type-tagged encoding of ``part`` to ``update``.

    Supports the value shapes commissioning keys are built from: scalars,
    bytes, containers, enums and (frozen) dataclasses such as
    ``ChannelParameters`` / ``RadioTimings`` / ``CaptureModel``.  Floats
    are encoded as IEEE-754 doubles, so the key is exact, not repr-lossy.
    """
    if part is None:
        update(b"N")
    elif isinstance(part, bool):
        update(b"o" + bytes([part]))
    elif isinstance(part, int):
        update(b"i" + part.to_bytes((part.bit_length() + 8) // 8 + 1, "big", signed=True))
    elif isinstance(part, float):
        update(b"f" + struct.pack(">d", part))
    elif isinstance(part, str):
        encoded = part.encode("utf-8")
        update(b"s" + len(encoded).to_bytes(4, "big") + encoded)
    elif isinstance(part, bytes):
        update(b"b" + len(part).to_bytes(4, "big") + part)
    elif isinstance(part, enum.Enum):
        update(b"E")
        _encode(type(part).__qualname__, update)
        _encode(part.value, update)
    elif isinstance(part, (tuple, list)):
        update(b"(" + len(part).to_bytes(4, "big"))
        for item in part:
            _encode(item, update)
    elif isinstance(part, (set, frozenset)):
        update(b"{" + len(part).to_bytes(4, "big"))
        for item in sorted(part, key=_sort_key):
            _encode(item, update)
    elif isinstance(part, dict):
        update(b"m" + len(part).to_bytes(4, "big"))
        for key in sorted(part, key=_sort_key):
            _encode(key, update)
            _encode(part[key], update)
    elif dataclasses.is_dataclass(part) and not isinstance(part, type):
        update(b"D")
        _encode(type(part).__qualname__, update)
        for field in dataclasses.fields(part):
            _encode(field.name, update)
            _encode(getattr(part, field.name), update)
    else:
        raise TypeError(
            f"cannot build a content key from {type(part).__name__!r}"
        )


def _sort_key(value: Any) -> bytes:
    hasher = hashlib.sha256()
    _encode(value, hasher.update)
    return hasher.digest()


def content_key(kind: str, *parts: Any) -> str:
    """Stable hex digest identifying an artifact by its full provenance."""
    hasher = hashlib.sha256()
    _encode(kind, hasher.update)
    for part in parts:
        _encode(part, hasher.update)
    return hasher.hexdigest()[:40]


# -- lifecycle -----------------------------------------------------------------


def sweep(
    directory: str | os.PathLike | None = None, *, now: float | None = None
) -> dict[str, int]:
    """Apply the LRU / max-age policy to a cache directory.

    Two passes, both best-effort (a vanished or unremovable file is
    somebody else's concurrent sweep, not an error):

    1. **max-age** — entries whose mtime is older than
       ``REPRO_CACHE_MAX_AGE_DAYS`` are deleted (off by default).
    2. **LRU cap** — if more than ``REPRO_CACHE_MAX_ENTRIES`` entries
       remain, the oldest-by-mtime overflow is deleted.  ``load`` touches
       entries on every hit, so mtime order is recency-of-use order.

    A preliminary pass removes ``.tmp-*`` leftovers from crashed writers
    once they are older than :data:`TMP_MAX_AGE_S` — young temp files may
    be a live writer mid-:func:`os.replace` and are left alone.

    Returns ``{"expired": ..., "evicted": ..., "kept": ..., "stale_tmp":
    ...}`` counts.
    """
    root = pathlib.Path(directory) if directory is not None else cache_dir()
    expired = evicted = stale_tmp = 0
    entries = []
    try:
        paths = list(root.glob("*.pkl"))
        tmp_paths = list(root.glob(".tmp-*"))
    except OSError:
        return {"expired": 0, "evicted": 0, "kept": 0, "stale_tmp": 0}
    for path in paths:
        # Per-file best-effort: a concurrent sweep (or writer) may unlink
        # files mid-scan; skipping one must not abort the whole pass.
        try:
            entries.append((path, path.stat().st_mtime))
        except OSError:
            continue
    now = time.time() if now is None else now
    for path in tmp_paths:
        try:
            if now - path.stat().st_mtime > TMP_MAX_AGE_S:
                path.unlink()
                stale_tmp += 1
        except OSError:
            continue
    age_limit = max_age_days()
    if age_limit is not None:
        cutoff = now - age_limit * 86400.0
        fresh = []
        for path, mtime in entries:
            if mtime < cutoff:
                try:
                    path.unlink()
                    expired += 1
                    continue
                except OSError:
                    pass
            fresh.append((path, mtime))
        entries = fresh
    overflow = len(entries) - max_entries()
    if overflow > 0:
        entries.sort(key=lambda item: item[1])
        survivors = []
        for path, mtime in entries:
            if overflow > 0:
                try:
                    path.unlink()
                    evicted += 1
                    overflow -= 1
                    continue
                except OSError:
                    pass
            survivors.append((path, mtime))
        entries = survivors
    return {
        "expired": expired,
        "evicted": evicted,
        "kept": len(entries),
        "stale_tmp": stale_tmp,
    }


# -- load / store --------------------------------------------------------------


def _entry_path(kind: str, key: str) -> pathlib.Path:
    return cache_dir() / f"{kind}-{key}.pkl"


def load(kind: str, key: str) -> Any | None:
    """Fetch a cached artifact; ``None`` on miss, corruption or staleness.

    Corrupt files (truncated pickles, wrong shapes) are deleted
    best-effort so they are rebuilt cleanly; files written by a different
    :data:`CACHE_VERSION` are left in place but ignored.
    """
    path = _entry_path(kind, key)
    try:
        with open(path, "rb") as handle:
            header = pickle.load(handle)
        if (
            not isinstance(header, dict)
            or header.get("kind") != kind
            or header.get("key") != key
        ):
            raise ValueError("cache entry header mismatch")
        if header.get("cache_version") != CACHE_VERSION:
            return None  # stale library version: ignore, rebuild, overwrite
        try:
            os.utime(path)  # touch: a hit is a use, for the LRU sweep
        except OSError:
            pass
        return header["payload"]
    except FileNotFoundError:
        return None
    except Exception:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def store(kind: str, key: str, payload: Any) -> bool:
    """Persist an artifact atomically; best-effort, returns success."""
    directory = cache_dir()
    budget_key = str(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        if budget_key not in _entry_budget:
            # First write into this directory this process: run the
            # lifecycle sweep, then budget the remaining headroom.
            swept = sweep(directory)
            _entry_budget[budget_key] = max_entries() - swept["kept"]
        if _entry_budget[budget_key] <= 0:
            return False
        header = {
            "cache_version": CACHE_VERSION,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=directory, prefix=".tmp-", delete=False
        )
        try:
            with handle:
                pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(handle.name, _entry_path(kind, key))
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        _entry_budget[budget_key] -= 1
        return True
    except Exception:
        return False


def fetch(kind: str, key: str, build: Callable[[], Any]) -> Any:
    """``load`` or ``build()``-and-``store`` an artifact."""
    cached = load(kind, key)
    if cached is not None:
        return cached
    built = build()
    store(kind, key, built)
    return built


# -- append-only log (write-ahead journal substrate) ---------------------------

#: Per-record frame magic for :class:`AppendLog` files.
LOG_MAGIC = b"RL"

#: Frame header layout: magic(2) + payload length(4, BE) + crc32(payload)(4, BE).
_LOG_HEADER = struct.Struct(">2sII")

#: Refuse absurd frame lengths instead of trying to allocate them — a
#: corrupted length field must read as a torn tail, not a MemoryError.
LOG_MAX_RECORD = 16 * 1024 * 1024


class AppendLog:
    """Crash-safe append-only record log: the substrate of service WALs.

    The durability contract the aggregation daemon builds on:

    * **Framed records** — every :meth:`append` writes one frame:
      ``magic + length + crc32 + payload``.  A reader never has to guess
      record boundaries, and any bit flip fails the CRC.
    * **fsync'd appends** — with ``fsync=True`` (the default) ``append``
      returns only after ``os.fsync``; an acknowledged record survives a
      hard kill of the process *and* of the machine.  ``fsync=False``
      trades that for throughput (tests, benchmarks); :meth:`sync` is
      the explicit barrier either way.
    * **Torn tails tolerated** — a writer killed mid-append leaves a
      partial frame.  :meth:`replay` yields every complete, CRC-valid
      record and stops cleanly at the first damaged one; opening the log
      for appending truncates that torn tail so new records never land
      after garbage.  Data *behind* a valid frame is never touched.

    A log is reopened with the same path; ``AppendLog(path)`` recovers
    (replay + truncate) before accepting new appends.  Instances are not
    thread-safe — the daemon serializes appends by construction.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = True):
        self.path = pathlib.Path(path)
        self.fsync = bool(fsync)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._valid_size, self.torn_bytes = self._scan()
        if self.torn_bytes:
            with open(self.path, "r+b") as handle:
                handle.truncate(self._valid_size)
        self._handle = open(self.path, "ab")
        self.records = self._count

    def _scan(self) -> tuple[int, int]:
        """Byte length of the valid prefix, and torn bytes beyond it."""
        self._count = 0
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return 0, 0
        valid = 0
        with open(self.path, "rb") as handle:
            while True:
                header = handle.read(_LOG_HEADER.size)
                if len(header) < _LOG_HEADER.size:
                    break
                magic, length, crc = _LOG_HEADER.unpack(header)
                if magic != LOG_MAGIC or length > LOG_MAX_RECORD:
                    break
                payload = handle.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    break
                valid += _LOG_HEADER.size + length
                self._count += 1
        return valid, size - valid

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        if len(payload) > LOG_MAX_RECORD:
            raise ValueError(
                f"record of {len(payload)} bytes exceeds the "
                f"{LOG_MAX_RECORD}-byte frame cap"
            )
        return _LOG_HEADER.pack(LOG_MAGIC, len(payload), zlib.crc32(payload)) + payload

    def stage(self, payloads: Iterable[bytes]) -> None:
        """Write records in one buffered write, with no flush or fsync.

        Staged records become durable together with the next
        :meth:`append` (or :meth:`sync`), so a caller that stages a batch
        and then appends the record committing it pays one fsync for the
        whole batch.  Until then a crash may keep any prefix of them.
        """
        frames = [self._frame(payload) for payload in payloads]
        self._handle.write(b"".join(frames))
        self.records += len(frames)

    def append(self, payload: bytes) -> int:
        """Durably append one record; returns its record index."""
        self._handle.write(self._frame(payload))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        index = self.records
        self.records += 1
        return index

    def sync(self) -> None:
        """Explicit durability barrier (useful under ``fsync=False``)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def replay(self) -> Iterator[bytes]:
        """Yield every complete record in append order (torn tail skipped)."""
        with open(self.path, "rb") as handle:
            while True:
                header = handle.read(_LOG_HEADER.size)
                if len(header) < _LOG_HEADER.size:
                    return
                magic, length, crc = _LOG_HEADER.unpack(header)
                if magic != LOG_MAGIC or length > LOG_MAX_RECORD:
                    return
                payload = handle.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    return
                yield payload

    def close(self, sync: bool = True) -> None:
        """Flush and close the underlying file, fsyncing it first under
        ``fsync=True`` unless ``sync`` is False: a log about to be
        replaced needs no fsync, since :meth:`append` already made its
        records durable."""
        if self._handle.closed:
            return
        self._handle.flush()
        if self.fsync and sync:
            os.fsync(self._handle.fileno())
        self._handle.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_log_records(path: str | os.PathLike) -> Iterator[bytes]:
    """Read-only replay of an append log's valid record prefix.

    Unlike constructing an :class:`AppendLog`, this never truncates a
    torn tail and never opens the file for writing — safe to run against
    a journal another process (or a live daemon in this process) still
    holds open for appending.  A missing file yields nothing.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        while True:
            header = handle.read(_LOG_HEADER.size)
            if len(header) < _LOG_HEADER.size:
                return
            magic, length, crc = _LOG_HEADER.unpack(header)
            if magic != LOG_MAGIC or length > LOG_MAX_RECORD:
                return
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return
            yield payload
