"""Journal tests: fsync'd CRC-framed appends, torn tails, typed replay."""

from __future__ import annotations

import struct

import pytest

from repro import diskcache
from repro.core.metrics import WindowSummary
from repro.service import wire
from repro.service.wal import WindowJournal
from repro.service.wire import ShareSubmission


def close_record(window: int, **overrides) -> WindowSummary:
    base = dict(
        window=window,
        accepted=2,
        devices=2,
        duplicates=0,
        late=0,
        shed=0,
        retried=0,
        total=11,
        expected=11,
        degraded=False,
        close_latency_us=10,
    )
    base.update(overrides)
    return WindowSummary(**base)


class TestAppendLog:
    def test_append_and_replay_in_order(self, tmp_path):
        with diskcache.AppendLog(tmp_path / "a.log", fsync=False) as log:
            for index in range(5):
                assert log.append(bytes([index]) * (index + 1)) == index
        reopened = diskcache.AppendLog(tmp_path / "a.log", fsync=False)
        assert reopened.records == 5
        assert list(reopened.replay()) == [
            bytes([index]) * (index + 1) for index in range(5)
        ]
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "torn.log"
        with diskcache.AppendLog(path, fsync=False) as log:
            log.append(b"alpha")
            log.append(b"beta")
        whole = path.read_bytes()
        path.write_bytes(whole + whole[: len(whole) // 3])  # partial frame
        reopened = diskcache.AppendLog(path, fsync=False)
        assert reopened.torn_bytes > 0
        assert reopened.records == 2
        assert list(reopened.replay()) == [b"alpha", b"beta"]
        # The tail is gone from disk, so new appends land after valid data.
        reopened.append(b"gamma")
        reopened.close()
        fresh = diskcache.AppendLog(path, fsync=False)
        assert list(fresh.replay()) == [b"alpha", b"beta", b"gamma"]
        fresh.close()

    def test_corrupt_crc_stops_replay_at_damage(self, tmp_path):
        path = tmp_path / "crc.log"
        with diskcache.AppendLog(path, fsync=False) as log:
            log.append(b"good")
            log.append(b"evil")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x40  # flip a payload bit of the second record
        path.write_bytes(bytes(data))
        reopened = diskcache.AppendLog(path, fsync=False)
        assert list(reopened.replay()) == [b"good"]
        assert reopened.records == 1
        reopened.close()

    def test_absurd_length_field_reads_as_torn_tail(self, tmp_path):
        path = tmp_path / "len.log"
        with diskcache.AppendLog(path, fsync=False) as log:
            log.append(b"ok")
        path.write_bytes(
            path.read_bytes()
            + struct.pack(">2sII", b"RL", 2**31, 0)
        )
        reopened = diskcache.AppendLog(path, fsync=False)
        assert reopened.records == 1
        assert list(reopened.replay()) == [b"ok"]
        reopened.close()

    def test_oversized_record_refused(self, tmp_path):
        with diskcache.AppendLog(tmp_path / "big.log", fsync=False) as log:
            with pytest.raises(ValueError, match="frame cap"):
                log.append(b"x" * (diskcache.LOG_MAX_RECORD + 1))

    def test_fsync_true_appends_survive_unclosed_handle(self, tmp_path):
        path = tmp_path / "sync.log"
        log = diskcache.AppendLog(path, fsync=True)
        log.append(b"durable")
        # No close: simulate the process dying with the handle open.
        reopened = diskcache.AppendLog(path, fsync=False)
        assert list(reopened.replay()) == [b"durable"]
        reopened.close()
        log.close()


class TestWindowJournal:
    def test_typed_replay_groups_records(self, tmp_path):
        journal = WindowJournal(tmp_path / "w.wal", fsync=False)
        subs = [ShareSubmission(d, 0, 0, d + 1) for d in range(3)]
        for sub in subs:
            journal.append_submission(sub)
        journal.append_close(close_record(0, accepted=3, devices=3))
        journal.append_submission(ShareSubmission(0, 1, 1, 9))
        state = journal.replay()
        journal.close()
        assert state.accepted == subs + [ShareSubmission(0, 1, 1, 9)]
        assert set(state.closes) == {0}
        assert state.closes[0].accepted == 3
        assert state.open_submissions == [ShareSubmission(0, 1, 1, 9)]
        assert state.skipped == 0

    def test_undecodable_record_counted_not_fatal(self, tmp_path):
        journal = WindowJournal(tmp_path / "skip.wal", fsync=False)
        journal.append_submission(ShareSubmission(1, 0, 0, 5))
        # A frame that is CRC-valid at the log layer but not a wire record.
        journal._log.append(b"\xffnot-a-record")
        journal.append_submission(ShareSubmission(2, 0, 0, 6))
        state = journal.replay()
        journal.close()
        assert state.skipped == 1
        assert [s.device for s in state.accepted] == [1, 2]

    def test_wire_payloads_identical_across_reopen(self, tmp_path):
        sub = ShareSubmission(4, 2, 1, 77)
        journal = WindowJournal(tmp_path / "bits.wal", fsync=False)
        journal.append_submission(sub)
        journal.close()
        raw = list(diskcache.AppendLog(tmp_path / "bits.wal", fsync=False).replay())
        assert raw == [wire.encode_record(sub)]
