"""Result-store lifecycle tests: retention, compaction, torn publishes."""

from __future__ import annotations

import pytest

from repro.core.metrics import WindowSummary
from repro.errors import ServiceError
from repro.service import ResultStore
from repro.service.daemon import ServiceConfig, ShardedServiceDaemon
from repro.service.wire import ShareSubmission


def readings(window: int, devices: int) -> list[ShareSubmission]:
    return [
        ShareSubmission(device, window, window, 100 * (window + 1) + device)
        for device in range(devices)
    ]


def close_of(window: int, contributions: list[ShareSubmission]) -> WindowSummary:
    total = sum(s.value for s in contributions)
    return WindowSummary(
        window=window,
        accepted=len(contributions),
        devices=len({s.device for s in contributions}),
        duplicates=0,
        late=0,
        shed=0,
        retried=0,
        total=total,
        expected=total,
        degraded=False,
        close_latency_us=0,
    )


def fill(store: ResultStore, windows: int, devices: int = 4) -> None:
    for window in range(windows):
        contributions = readings(window, devices)
        store.publish(close_of(window, contributions), contributions)


@pytest.fixture
def store_file(tmp_path):
    return tmp_path / "results.store"


class TestPublishAndQuery:
    def test_publish_then_query(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=3)
            assert store.windows == (0, 1, 2)
            assert store.window(1).total == sum(s.value for s in readings(1, 4))
            assert store.contributions(2) == readings(2, 4)
            extract = store.billing_extract()
            assert extract[0].total == 100 + 200 + 300
            assert extract[0].windows == 3
            assert extract[0].through_window == 2

    def test_replay_round_trips(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=2)
            before = store.billing_extract()
        with ResultStore(store_file, fsync=False) as reopened:
            assert reopened.windows == (0, 1)
            assert reopened.billing_extract() == before
            assert reopened.skipped == 0

    def test_double_publish_refused(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=1)
            with pytest.raises(ServiceError, match="already in the result store"):
                store.publish(close_of(0, []), [])

    def test_mismatched_contribution_window_refused(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            with pytest.raises(ServiceError, match="published under close"):
                store.publish(close_of(1, []), readings(0, 2))

    def test_missing_device_bills_zero(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=1, devices=2)
            assert store.device_total(99) == 0
            assert 99 not in store.billing_extract()


class TestTornPublishAtomicity:
    def test_contributions_without_close_are_dropped(self, store_file):
        from repro import diskcache
        from repro.service import wire

        store = ResultStore(store_file, fsync=False)
        fill(store, windows=1)
        # Simulate a crash between the SUBMIT frames and their close:
        # append contributions for window 1 with no committing record.
        for submission in readings(1, 3):
            store._log.append(wire.encode_record(submission))
        store.close()
        # 4 submissions + 1 close from window 0, plus the 3 torn frames.
        assert len(list(diskcache.read_log_records(store_file))) == 5 + 3

        reopened = ResultStore(store_file, fsync=False)
        assert reopened.windows == (0,)  # window 1 never committed
        assert reopened.skipped == 3
        # The re-publish of the lost window lands clean after recovery.
        contributions = readings(1, 3)
        reopened.publish(close_of(1, contributions), contributions)
        assert reopened.windows == (0, 1)
        reopened.close()


    def test_truncation_anywhere_in_a_publish_keeps_it_whole_or_absent(
        self, store_file, tmp_path
    ):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=1)
        committed = store_file.stat().st_size
        contributions = readings(1, 5)
        with ResultStore(store_file, fsync=False) as store:
            store.publish(close_of(1, contributions), contributions)
            whole = store.billing_extract()
        data = store_file.read_bytes()
        torn = tmp_path / "torn.store"
        for offset in range(committed, len(data) + 1):
            torn.write_bytes(data[:offset])
            with ResultStore(torn, fsync=False) as reopened:
                if offset == len(data):
                    assert reopened.windows == (0, 1)
                    assert reopened.contributions(1) == contributions
                    assert reopened.billing_extract() == whole
                else:
                    assert reopened.windows == (0,), offset
                    assert reopened.contributions(1) == []


def count_fsyncs(monkeypatch) -> list[int]:
    import os

    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestFsyncBudget:
    def test_publish_fsyncs_once_whatever_its_size(self, store_file, monkeypatch):
        with ResultStore(store_file, fsync=True) as store:
            fsyncs = count_fsyncs(monkeypatch)
            contributions = readings(0, 200)
            store.publish(close_of(0, contributions), contributions)
            assert len(fsyncs) == 1
        with ResultStore(store_file, fsync=False) as reopened:
            assert reopened.contributions(0) == contributions

    def test_compaction_fsyncs_do_not_grow_with_records(self, tmp_path, monkeypatch):
        counts = []
        for windows in (2, 12):
            with ResultStore(tmp_path / f"{windows}.store", fsync=True) as store:
                fill(store, windows=windows, devices=10)
                before = store.billing_extract()
                fsyncs = count_fsyncs(monkeypatch)
                store.compact(through_window=0)
                counts.append(len(fsyncs))
                monkeypatch.undo()
                assert store.billing_extract() == before
        assert counts[0] == counts[1] == 1


class TestCompactionAndRetention:
    def test_compaction_preserves_billing_bit_for_bit(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=4)
            before = {d: b.total for d, b in store.billing_extract().items()}
            assert store.compact(through_window=1) == 2
            assert store.windows == (2, 3)
            assert store.horizon == 1
            after = {d: b.total for d, b in store.billing_extract().items()}
            assert after == before

    def test_any_compaction_schedule_bills_identically(self, store_file, tmp_path):
        with ResultStore(store_file, fsync=False) as stepwise:
            fill(stepwise, windows=5)
            oracle = {d: b.total for d, b in stepwise.billing_extract().items()}
            for window in range(4):
                stepwise.compact(through_window=window)
            stepped = {d: b.total for d, b in stepwise.billing_extract().items()}
        with ResultStore(tmp_path / "oneshot.store", fsync=False) as oneshot:
            fill(oneshot, windows=5)
            oneshot.compact(through_window=3)
            shot = {d: b.total for d, b in oneshot.billing_extract().items()}
        assert stepped == oracle
        assert shot == oracle

    def test_compaction_survives_reopen(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=3)
            store.compact(through_window=1)
            before = store.billing_extract()
        with ResultStore(store_file, fsync=False) as reopened:
            assert reopened.horizon == 1
            assert reopened.windows == (2,)
            assert reopened.billing_extract() == before
            with pytest.raises(ServiceError, match="behind the store's"):
                reopened.publish(close_of(0, []), [])

    def test_retention_sweep_keeps_newest(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=6)
            before = {d: b.total for d, b in store.billing_extract().items()}
            assert store.retain(keep_windows=2) == 4
            assert store.windows == (4, 5)
            assert store.retain(keep_windows=2) == 0  # already trimmed
            after = {d: b.total for d, b in store.billing_extract().items()}
            assert after == before

    def test_retain_rejects_negative(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            with pytest.raises(ServiceError, match=">= 0"):
                store.retain(-1)

    def test_compact_nothing_is_noop(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=2)
            assert store.compact(through_window=-1) == 0
            assert store.windows == (0, 1)


class TestIngestIdempotence:
    def journal_dir(self, tmp_path, windows: int = 2):
        service_dir = tmp_path / "svc"
        daemon = ShardedServiceDaemon(
            ServiceConfig(seed=7, cells=2, fsync=False), service_dir, shards=2
        )
        for window in range(windows):
            for device in range(4):
                assert daemon.submit(device, window, window, 10 + device).accepted
            daemon.close_window(window)
        daemon.stop()
        return service_dir

    def test_ingest_is_idempotent(self, tmp_path, store_file):
        service_dir = self.journal_dir(tmp_path)
        with ResultStore(store_file, fsync=False) as store:
            assert store.ingest(service_dir) == 2
            first = store.billing_extract()
            assert store.ingest(service_dir) == 0
            assert store.billing_extract() == first

    def test_ingest_cannot_resurrect_compacted_windows(self, tmp_path, store_file):
        service_dir = self.journal_dir(tmp_path)
        with ResultStore(store_file, fsync=False) as store:
            store.ingest(service_dir)
            before = {d: b.total for d, b in store.billing_extract().items()}
            store.compact(through_window=0)
            # The daemon journals still hold window 0; the horizon must
            # keep a re-ingest from double-billing it.
            assert store.ingest(service_dir) == 0
            after = {d: b.total for d, b in store.billing_extract().items()}
            assert after == before

    def test_ingest_sees_only_journaled_closes(self, tmp_path, store_file):
        service_dir = tmp_path / "svc"
        daemon = ShardedServiceDaemon(
            ServiceConfig(seed=7, cells=2, fsync=False), service_dir, shards=2
        )
        for device in range(4):
            assert daemon.submit(device, 0, 0, 10 + device).accepted
        daemon.close_window(0)
        # Window 1 is mid-flight when the kill lands: journaled
        # submissions, no close record.
        assert daemon.submit(0, 1, 1, 99).accepted
        daemon.hard_stop()
        with ResultStore(store_file, fsync=False) as store:
            assert store.ingest(service_dir) == 1
            assert store.windows == (0,)


class TestReadOnlyMode:
    def test_readonly_answers_without_touching_the_log(self, store_file):
        with ResultStore(store_file, fsync=False) as store:
            fill(store, windows=2)
            expected = store.billing_extract()
        before = store_file.read_bytes()
        reader = ResultStore(store_file, readonly=True)
        assert reader.windows == (0, 1)
        assert reader.billing_extract() == expected
        reader.sync()
        reader.close()
        assert store_file.read_bytes() == before

    def test_readonly_refuses_compaction(self, store_file):
        ResultStore(store_file, fsync=False).close()
        reader = ResultStore(store_file, readonly=True)
        with pytest.raises(ServiceError, match="read-only"):
            reader.compact(0)

    def test_readonly_ingest_is_memory_only(self, tmp_path, store_file):
        service_dir = TestIngestIdempotence().journal_dir(tmp_path)
        ResultStore(store_file, fsync=False).close()
        stamp = store_file.read_bytes()
        reader = ResultStore(store_file, readonly=True)
        assert reader.ingest(service_dir) == 2
        assert reader.windows == (0, 1)
        assert store_file.read_bytes() == stamp  # nothing persisted
