"""Fault injection for the persisted commissioning cache.

The cache contract under faults is *ignore and rebuild*: a truncated,
bit-flipped or partially written entry must read as a miss (and be
cleaned up best-effort), never corrupt a campaign or raise.  A writer
that crashes mid-store may leave at most an ignorable ``.tmp-*`` file,
which the lifecycle sweep removes once it is stale.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro import diskcache


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private cache dir via REPRO_CACHE_DIR, overrides dropped."""
    diskcache.set_cache_dir(None)
    diskcache.set_enabled(None)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path
    diskcache.set_cache_dir(None)
    diskcache.set_enabled(None)


def _entry_file(cache_dir, kind: str, key: str):
    (path,) = cache_dir.glob(f"{kind}-{key}.pkl")
    return path


class TestCorruptEntries:
    """Damaged entries read as misses and are rebuilt cleanly."""

    def test_truncated_entry_ignored_and_removed(self, cache_dir):
        key = diskcache.content_key("fault", "truncate")
        assert diskcache.store("fault", key, {"payload": 1})
        path = _entry_file(cache_dir, "fault", key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert diskcache.load("fault", key) is None
        # Ignore-and-rebuild: the damaged file is gone, not retried.
        assert not path.exists()

    def test_bit_flipped_entry_ignored_and_removed(self, cache_dir):
        key = diskcache.content_key("fault", "bitflip")
        assert diskcache.store("fault", key, list(range(64)))
        path = _entry_file(cache_dir, "fault", key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x40
        path.write_bytes(bytes(raw))
        assert diskcache.load("fault", key) is None
        assert not path.exists()

    def test_partially_written_header_only_entry(self, cache_dir):
        # A header without its payload key models a write that stopped
        # mid-structure but still unpickles.
        key = diskcache.content_key("fault", "partial")
        path = cache_dir / f"fault-{key}.pkl"
        cache_dir.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps(
                {"cache_version": diskcache.CACHE_VERSION, "kind": "fault",
                 "key": key}
            )
        )
        assert diskcache.load("fault", key) is None
        assert not path.exists()

    def test_header_for_wrong_entry_rejected(self, cache_dir):
        # A file renamed over the wrong key must not serve foreign data.
        key_a = diskcache.content_key("fault", "a")
        key_b = diskcache.content_key("fault", "b")
        assert diskcache.store("fault", key_a, "A")
        path = _entry_file(cache_dir, "fault", key_a)
        os.replace(path, cache_dir / f"fault-{key_b}.pkl")
        assert diskcache.load("fault", key_b) is None

    def test_empty_file_ignored(self, cache_dir):
        key = diskcache.content_key("fault", "empty")
        cache_dir.mkdir(parents=True, exist_ok=True)
        (cache_dir / f"fault-{key}.pkl").write_bytes(b"")
        assert diskcache.load("fault", key) is None

    def test_fetch_rebuilds_after_corruption(self, cache_dir):
        key = diskcache.content_key("fault", "rebuild")
        assert diskcache.store("fault", key, {"v": "stale"})
        path = _entry_file(cache_dir, "fault", key)
        path.write_bytes(b"\x80garbage")
        # Consumers load, and on a miss build and store (see
        # ``cached_link_table``): the corrupt entry reads as a miss ...
        assert diskcache.load("fault", key) is None
        assert diskcache.store("fault", key, {"v": "fresh"})
        # ... and the rebuild was persisted: the next load is a pure hit.
        assert diskcache.load("fault", key) == {"v": "fresh"}


class TestCrashDuringWrite:
    """A writer dying mid-store never leaves a live-but-wrong entry."""

    def test_failed_replace_leaves_no_entry_and_no_tmp(
        self, cache_dir, monkeypatch
    ):
        key = diskcache.content_key("fault", "crashwrite")

        def exploding_replace(src, dst, **kwargs):
            raise OSError("injected crash during atomic rename")

        monkeypatch.setattr(diskcache.os, "replace", exploding_replace)
        assert diskcache.store("fault", key, "doomed") is False
        monkeypatch.undo()
        assert diskcache.load("fault", key) is None
        assert list(cache_dir.glob(".tmp-*")) == []
        # The cache recovers: the very next store succeeds.
        assert diskcache.store("fault", key, "survivor")
        assert diskcache.load("fault", key) == "survivor"

    def test_stale_tmp_leftover_swept(self, cache_dir):
        # A hard-killed writer leaves its temp file behind (no cleanup
        # handler ran).  load() never sees it; sweep() removes it once
        # it is older than TMP_MAX_AGE_S.
        key = diskcache.content_key("fault", "leftover")
        assert diskcache.store("fault", key, "live")
        cache_dir.mkdir(parents=True, exist_ok=True)
        stale = cache_dir / ".tmp-deadwriter"
        stale.write_bytes(b"partial pickle bytes")
        old = time.time() - 2 * diskcache.TMP_MAX_AGE_S
        os.utime(stale, (old, old))
        young = cache_dir / ".tmp-livewriter"
        young.write_bytes(b"in flight")
        swept = diskcache.sweep()
        assert swept == {
            "expired": 0, "evicted": 0, "kept": 1, "stale_tmp": 1,
        }
        assert not stale.exists()
        # A young temp file may be a live writer mid-replace: untouched.
        assert young.exists()
        assert diskcache.load("fault", key) == "live"

    def test_tmp_files_invisible_to_load(self, cache_dir):
        key = diskcache.content_key("fault", "invisible")
        cache_dir.mkdir(parents=True, exist_ok=True)
        (cache_dir / ".tmp-anything").write_bytes(b"noise")
        assert diskcache.load("fault", key) is None
        assert diskcache.store("fault", key, 7)
        assert diskcache.load("fault", key) == 7
