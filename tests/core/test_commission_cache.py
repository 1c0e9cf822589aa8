"""Tests for the persisted commissioning cache (repro.diskcache + hooks).

Covers the satellite checklist: hash-key stability, corrupt and
stale-version entries ignored and rebuilt, ``REPRO_CACHE_DIR`` respected,
and cache hits bit-identical to fresh bootstraps.
"""

from __future__ import annotations

import pickle

import pytest

from repro import diskcache, fastpath
from repro.analysis.experiments import build_engines
from repro.core.config import CryptoMode
from repro.phy.channel import ChannelModel, ChannelParameters
from repro.phy.link import cached_link_table
from repro.topology.generators import grid
from repro.topology.testbeds import TestbedSpec as BedSpec


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private cache dir, via the env var the satellite task names."""
    # Drop any runtime overrides so the env var is actually consulted.
    diskcache.set_cache_dir(None)
    diskcache.set_enabled(None)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path
    diskcache.set_cache_dir(None)
    diskcache.set_enabled(None)


@pytest.fixture
def mini_spec():
    topology = grid(3, 3, spacing_m=7.0, jitter_m=0.5, seed=4)
    channel = ChannelParameters(
        path_loss_exponent=4.0,
        reference_loss_db=52.0,
        shadowing_sigma_db=1.0,
        noise_floor_dbm=-96.0,
        shadowing_seed=5,
    )
    return BedSpec(
        topology=topology,
        channel=channel,
        sharing_ntx=4,
        full_coverage_ntx=6,
        source_sweep=(4, 9),
        name="mini-cache",
        extras={"s4_sharing_ntx": 4, "s4_redundancy": 1},
    )


class TestContentKey:
    def test_stable_across_calls(self):
        parts = ((1, 2.5, "x"), {"a": 1, "b": (2, 3)}, b"raw")
        assert diskcache.content_key("k", *parts) == diskcache.content_key(
            "k", *parts
        )

    def test_sensitive_to_every_part(self):
        base = diskcache.content_key("k", 1, 2.5, "x")
        assert diskcache.content_key("other", 1, 2.5, "x") != base
        assert diskcache.content_key("k", 2, 2.5, "x") != base
        assert diskcache.content_key("k", 1, 2.5000001, "x") != base
        assert diskcache.content_key("k", 1, 2.5, "y") != base

    def test_type_tagged(self):
        assert diskcache.content_key("k", 1) != diskcache.content_key("k", "1")
        assert diskcache.content_key("k", 1) != diskcache.content_key("k", 1.0)
        assert diskcache.content_key("k", True) != diskcache.content_key("k", 1)

    def test_dict_order_independent(self):
        a = diskcache.content_key("k", {"x": 1, "y": 2})
        b = diskcache.content_key("k", {"y": 2, "x": 1})
        assert a == b

    def test_dataclass_parts(self):
        p1 = ChannelParameters(shadowing_seed=1)
        p2 = ChannelParameters(shadowing_seed=2)
        assert diskcache.content_key("k", p1) == diskcache.content_key("k", p1)
        assert diskcache.content_key("k", p1) != diskcache.content_key("k", p2)

    def test_enum_parts(self):
        assert diskcache.content_key("k", CryptoMode.REAL) != diskcache.content_key(
            "k", CryptoMode.STUB
        )

    def test_rejects_unkeyable(self):
        with pytest.raises(TypeError):
            diskcache.content_key("k", object())


class TestStoreLoad:
    def test_round_trip(self, cache_dir):
        key = diskcache.content_key("thing", 1)
        assert diskcache.load("thing", key) is None
        assert diskcache.store("thing", key, {"v": [1.5, 2.5]})
        assert diskcache.load("thing", key) == {"v": [1.5, 2.5]}

    def test_respects_env_cache_dir(self, cache_dir):
        key = diskcache.content_key("where", 1)
        diskcache.store("where", key, "payload")
        files = list(cache_dir.glob("where-*.pkl"))
        assert len(files) == 1

    def test_set_cache_dir_override_wins(self, cache_dir, tmp_path_factory):
        override = tmp_path_factory.mktemp("override")
        diskcache.set_cache_dir(override)
        try:
            key = diskcache.content_key("where", 2)
            diskcache.store("where", key, "payload")
            assert list(override.glob("where-*.pkl"))
            assert not list(cache_dir.glob("where-*.pkl"))
        finally:
            diskcache.set_cache_dir(None)

    def test_corrupt_entry_ignored_and_rebuilt(self, cache_dir):
        key = diskcache.content_key("c", 1)
        diskcache.store("c", key, 123)
        (path,) = cache_dir.glob("c-*.pkl")
        path.write_bytes(b"\x80garbage not a pickle")
        assert diskcache.load("c", key) is None
        assert not path.exists()  # corrupt file dropped
        assert diskcache.store("c", key, 456)
        assert diskcache.load("c", key) == 456

    def test_stale_version_ignored_and_rebuilt(self, cache_dir, monkeypatch):
        key = diskcache.content_key("v", 1)
        monkeypatch.setattr(diskcache, "CACHE_VERSION", diskcache.CACHE_VERSION + 1)
        diskcache.store("v", key, "future")
        monkeypatch.undo()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert diskcache.load("v", key) is None
        assert diskcache.store("v", key, "rebuilt")
        assert diskcache.load("v", key) == "rebuilt"

    def test_wrong_kind_rejected(self, cache_dir):
        key = diskcache.content_key("a", 1)
        diskcache.store("a", key, 1)
        assert diskcache.load("b", key) is None

    def test_disabled_via_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not diskcache.enabled()

    def test_set_enabled_override(self):
        previous = diskcache.set_enabled(False)
        try:
            assert not diskcache.enabled()
        finally:
            diskcache.set_enabled(previous)


@pytest.fixture
def force_fastpath():
    """The disk cache only engages on the fast path; pin it on."""
    with fastpath.forced(True):
        yield


class TestLinkTablePersistence:
    @pytest.fixture(autouse=True)
    def _fast(self, force_fastpath):
        pass

    def test_disk_hit_bit_identical(self, cache_dir, mini_spec):
        channel = ChannelModel(mini_spec.channel)
        fresh = cached_link_table(mini_spec.topology.positions, channel, 29)
        fastpath.clear_process_caches()
        reloaded = cached_link_table(mini_spec.topology.positions, channel, 29)
        assert reloaded is not fresh  # rebuilt from disk, not the pool
        assert reloaded.node_ids == fresh.node_ids
        for src in fresh.node_ids:
            for dst in fresh.node_ids:
                if src == dst:
                    continue
                assert reloaded.prr(src, dst) == fresh.prr(src, dst)
                assert reloaded.rssi(src, dst) == fresh.rssi(src, dst)

    def test_content_digest_stable(self, cache_dir, mini_spec):
        channel = ChannelModel(mini_spec.channel)
        table = cached_link_table(mini_spec.topology.positions, channel, 29)
        fastpath.clear_process_caches()
        again = cached_link_table(mini_spec.topology.positions, channel, 29)
        assert table.content_digest() == again.content_digest()


class TestBootstrapPersistence:
    @pytest.fixture(autouse=True)
    def _fast(self, force_fastpath):
        pass

    def test_cache_hit_bit_identical_to_fresh(self, cache_dir, mini_spec):
        _, s4 = build_engines(mini_spec, crypto_mode=CryptoMode.STUB)
        nodes = mini_spec.topology.node_ids
        fresh = s4.bootstrap_for(nodes)
        assert list(cache_dir.glob("s4-bootstrap-*.pkl"))

        # Drop every in-process pool so the next engine must go to disk.
        fastpath.clear_process_caches()
        _, s4_again = build_engines(mini_spec, crypto_mode=CryptoMode.STUB)
        from_disk = s4_again.bootstrap_for(nodes)
        assert from_disk == fresh

        # And a from-scratch recompute (cache disabled) agrees too.
        fastpath.clear_process_caches()
        previous = diskcache.set_enabled(False)
        try:
            _, s4_cold = build_engines(mini_spec, crypto_mode=CryptoMode.STUB)
            recomputed = s4_cold.bootstrap_for(nodes)
        finally:
            diskcache.set_enabled(previous)
        assert recomputed == fresh

    def test_codec_rebuilt_equivalent_and_not_persisted(self, cache_dir, mini_spec):
        from repro.field.prime_field import FieldElement

        _, s4 = build_engines(mini_spec, crypto_mode=CryptoMode.REAL)
        node = mini_spec.topology.node_ids[0]
        peer = mini_spec.topology.node_ids[1]
        fresh = s4.codec(node)
        assert not list(cache_dir.glob("codec-*.pkl"))

        fastpath.clear_process_caches()
        _, s4_again = build_engines(mini_spec, crypto_mode=CryptoMode.REAL)
        rebuilt = s4_again.codec(node)
        assert rebuilt is not fresh
        field = s4.config.field
        packet = fresh.encrypt_share(peer, FieldElement(field, 77), 5)
        assert rebuilt.encrypt_share(peer, FieldElement(field, 77), 5) == packet


def dcube_real_rounds(rounds: int = 3) -> list:
    """Commission D-Cube REAL from the active cache directory, with every
    process pool emptied first, and run a few rounds."""
    from repro.analysis.experiments import round_secrets
    from repro.sim.seeds import iteration_seeds
    from repro.topology.testbeds import dcube

    fastpath.clear_process_caches()
    spec = dcube()
    _, engine = build_engines(spec, CryptoMode.REAL)
    nodes = spec.topology.node_ids
    return [
        engine.run(round_secrets(nodes, index), seed=iteration_seeds(3, "S4", index, 1)[0])
        for index in range(rounds)
    ]


#: How earlier versions named a persisted REAL codec: one entry per
#: node, of a kind this version neither reads nor writes.
LEGACY_CODEC_ENTRY = "codec-{key}.pkl"


def test_cache_with_legacy_codec_entries_commissions_bit_identically(cache_dir, force_fastpath):
    """A cache directory written before codecs stopped being persisted
    (its link-table and bootstrap entries, plus 45 ``codec-*.pkl``
    files) commissions D-Cube REAL with rounds bit-identical to a fresh
    build, and its codec entries are left alone."""
    previous = diskcache.set_enabled(False)
    try:
        fresh = dcube_real_rounds()
    finally:
        diskcache.set_enabled(previous)

    dcube_real_rounds(rounds=1)  # writes the link-table and bootstrap entries
    assert list(cache_dir.glob("s4-bootstrap-*.pkl"))
    legacy = []
    for node in range(45):
        key = diskcache.content_key("legacy-codec", node)
        path = cache_dir / LEGACY_CODEC_ENTRY.format(key=key)
        header = {
            "cache_version": diskcache.CACHE_VERSION,
            "kind": path.name.split("-")[0],
            "key": key,
            "payload": bytes(1024),
        }
        path.write_bytes(pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL))
        legacy.append((path, path.stat().st_mtime_ns))

    assert dcube_real_rounds() == fresh
    # Never read (a read would touch the mtime) and never rewritten.
    assert [(path, path.stat().st_mtime_ns) for path, _ in legacy] == legacy
    assert len(list(cache_dir.glob("codec-*.pkl"))) == 45


class TestLifecycleSweep:
    """The LRU / max-age lifecycle policy (ROADMAP "cache lifecycle")."""

    def _populate(self, count: int) -> list[str]:
        keys = [diskcache.content_key("life", i) for i in range(count)]
        for key in keys:
            assert diskcache.store("life", key, {"k": key})
        return keys

    def test_old_entries_evicted_fresh_survive(self, cache_dir, monkeypatch):
        import os
        import time

        keys = self._populate(6)
        now = time.time()
        stale = now - 45 * 86400.0
        for key in keys[:4]:
            (path,) = cache_dir.glob(f"life-{key}.pkl")
            os.utime(path, (stale, stale))
        monkeypatch.setenv("REPRO_CACHE_MAX_AGE_DAYS", "30")
        swept = diskcache.sweep()
        assert swept == {"expired": 4, "evicted": 0, "kept": 2, "stale_tmp": 0}
        for key in keys[:4]:
            assert diskcache.load("life", key) is None
        for key in keys[4:]:
            assert diskcache.load("life", key) == {"k": key}

    def test_lru_cap_keeps_most_recently_used(self, cache_dir, monkeypatch):
        import os
        import time

        keys = self._populate(5)
        # Spread mtimes a minute apart, oldest first, then "use" the
        # oldest entry via load() — the touch must rescue it.
        base = time.time() - 3600
        for offset, key in enumerate(keys):
            (path,) = cache_dir.glob(f"life-{key}.pkl")
            os.utime(path, (base + 60 * offset, base + 60 * offset))
        assert diskcache.load("life", keys[0]) == {"k": keys[0]}
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        swept = diskcache.sweep()
        assert swept == {"expired": 0, "evicted": 2, "kept": 3, "stale_tmp": 0}
        survivors = {
            key for key in keys if diskcache.load("life", key) is not None
        }
        assert survivors == {keys[0], keys[3], keys[4]}

    def test_store_triggers_sweep_on_first_directory_use(
        self, cache_dir, monkeypatch
    ):
        import os
        import time

        keys = self._populate(3)
        stale = time.time() - 90 * 86400.0
        for key in keys:
            (path,) = cache_dir.glob(f"life-{key}.pkl")
            os.utime(path, (stale, stale))
        monkeypatch.setenv("REPRO_CACHE_MAX_AGE_DAYS", "7")
        # Forget this process already budgeted the directory, as a fresh
        # campaign service would on start-up.
        monkeypatch.setattr(diskcache, "_entry_budget", {})
        fresh = diskcache.content_key("life", "fresh")
        assert diskcache.store("life", fresh, "new")
        assert diskcache.load("life", fresh) == "new"
        for key in keys:
            assert diskcache.load("life", key) is None

    def test_sweep_unconfigured_is_a_no_op(self, cache_dir):
        keys = self._populate(4)
        swept = diskcache.sweep()
        assert swept == {"expired": 0, "evicted": 0, "kept": 4, "stale_tmp": 0}
        for key in keys:
            assert diskcache.load("life", key) == {"k": key}
