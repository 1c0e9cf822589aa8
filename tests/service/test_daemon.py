"""Daemon tests: admission policy, deadlines, crash recovery invariants.

Every daemon case runs at one shard and at four; :class:`TestShardCore`
drives the shared shard state machine directly, and the recovery
refusals run against both hosts (in-process daemon and supervisor).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ServiceError
from repro.service import Admission, ServiceConfig, WindowJournal, wal
from repro.service.daemon import ShardedServiceDaemon
from repro.service.shard import ShardCore
from repro.service.supervisor import ShardSupervisor
from repro.service.windows import aggregate_shards, aggregate_window
from repro.service.wire import ShareSubmission

SHARDS = (1, 4)

#: Journal damage -> the refusal both hosts must raise at restart.
REFUSALS = {
    "tampered_total": "does not match",
    "count_mismatch": "record counts",
    "duplicate_identity": "duplicate",
    "misrouted": "routes to shard",
    "undecodable": "undecodable",
}


def config(**overrides) -> ServiceConfig:
    base = dict(seed=77, cells=2, fsync=False)
    base.update(overrides)
    return ServiceConfig(**base)


def each_daemon(tmp_path, **overrides):
    """One fresh daemon per shard count in :data:`SHARDS`, stopped after."""
    for shards in SHARDS:
        with ShardedServiceDaemon(
            config(**overrides), tmp_path / f"shards-{shards}", shards=shards
        ) as daemon:
            yield daemon


def fill_window(daemon, window: int, devices: int) -> None:
    for device in range(devices):
        result = daemon.submit(device, window, window, 100 + device)
        assert result.accepted


class TestAdmission:
    def test_accept_then_duplicate(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            first = daemon.submit(3, 0, 0, 42)
            again = daemon.submit(3, 0, 0, 42)
            assert first.admission is Admission.ACCEPTED
            assert again.admission is Admission.DUPLICATE
            assert not again.retryable
            assert sum(daemon.accepted_per_shard) == 1

    def test_duplicate_identity_spans_windows(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            assert daemon.submit(3, 0, 0, 42).accepted
            daemon.close_window(0)
            # Same (device, seq) aimed at a later window is still a dup.
            assert daemon.submit(3, 0, 1, 42).admission is Admission.DUPLICATE

    def test_closed_window_is_late_and_final(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            fill_window(daemon, 0, 3)
            daemon.close_window(0)
            late = daemon.submit(9, 0, 0, 5)
            assert late.admission is Admission.LATE
            assert not late.retryable
            assert daemon.late_total == 1

    def test_deadline_covers_empty_skipped_windows(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            fill_window(daemon, 2, 2)
            daemon.close_window(2)
            # Windows 0 and 1 never opened, but the deadline passed them.
            assert daemon.submit(5, 0, 0, 1).admission is Admission.LATE
            assert daemon.submit(5, 1, 1, 1).admission is Admission.LATE

    def test_window_capacity_sheds(self, tmp_path):
        # The cap is per shard: every shard takes two, the next is shed.
        for daemon in each_daemon(tmp_path, window_capacity=2):
            fill_window(daemon, 0, 2 * daemon.shards)
            shed = daemon.submit(2 * daemon.shards, 0, 0, 1)
            assert shed.admission is Admission.SHED
            assert not shed.retryable
            summary = daemon.close_window(0)
            assert summary.shed == 1
            assert summary.accepted == 2 * daemon.shards

    def test_queue_capacity_answers_retry_after(self, tmp_path):
        # The bound is per shard: each shard holds two pending shares.
        for daemon in each_daemon(tmp_path, queue_capacity=2):
            fill_window(daemon, 0, 2 * daemon.shards)
            device = 2 * daemon.shards + 1
            held = daemon.submit(device, 1, 1, 1)
            assert held.admission is Admission.RETRY_AFTER
            assert held.retry_after_s == pytest.approx(0.05)
            # Closing a window frees queue space; the retry then lands.
            daemon.close_window(0)
            assert daemon.submit(device, 1, 1, 1).accepted

    def test_pause_resume(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            daemon.pause()
            assert daemon.paused
            held = daemon.submit(1, 0, 0, 9)
            assert held.retryable
            daemon.resume()
            assert daemon.submit(1, 0, 0, 9).accepted

    def test_late_beats_duplicate_beats_pressure(self, tmp_path):
        # Admission order: LATE, then DUPLICATE, then pause/capacity.
        for daemon in each_daemon(tmp_path):
            assert daemon.submit(1, 0, 0, 9).accepted
            daemon.close_window(0)
            daemon.pause()
            assert daemon.submit(2, 0, 0, 9).admission is Admission.LATE
            assert daemon.submit(1, 0, 1, 9).admission is Admission.DUPLICATE

    def test_malformed_submission_raises(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            with pytest.raises(ServiceError, match="malformed"):
                daemon.submit(-1, 0, 0, 9)


class TestWindowLifecycle:
    def test_close_totals_match_pure_aggregation(self, tmp_path):
        cfg = config()
        submissions = [ShareSubmission(d, 0, 0, 100 + d) for d in range(5)]
        for daemon in each_daemon(tmp_path):
            fill_window(daemon, 0, 5)
            summary = daemon.close_window(0)
            shards = daemon.shards
            oracle = aggregate_shards(
                {i: [s for s in submissions if s.device % shards == i]
                 for i in range(shards)},
                cfg.seed,
                0,
                cfg.cells,
            )
            assert summary.total == oracle.total
            assert summary.expected == oracle.expected
            assert summary.exact
            assert summary.devices == 5
            if shards == 1:
                # One shard is sliced into config.cells cells.
                sliced = aggregate_window(submissions, cfg.seed, 0, cfg.cells)
                assert summary.total == sliced.total

    def test_windows_close_in_order(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            fill_window(daemon, 0, 2)
            fill_window(daemon, 1, 2)
            with pytest.raises(ServiceError, match="close in order"):
                daemon.close_window(1)
            # The refused close changed nothing on any shard.
            assert daemon.open_windows == (0, 1)
            daemon.close_window(0)
            daemon.close_window(1)

    def test_double_close_refused(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            fill_window(daemon, 0, 2)
            daemon.close_window(0)
            with pytest.raises(ServiceError, match="already closed"):
                daemon.close_window(0)

    def test_empty_window_closes_inexact(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            summary = daemon.close_window(0)
            assert summary.total is None
            assert summary.accepted == 0
            assert not summary.exact

    def test_mark_degraded_flags_close_record(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            fill_window(daemon, 0, 2)
            daemon.mark_degraded(0)
            assert daemon.close_window(0).degraded
            fill_window(daemon, 1, 2)
            assert not daemon.close_window(1).degraded
            with pytest.raises(ServiceError):
                daemon.mark_degraded(0)


class TestRecovery:
    def test_hard_kill_recovery_is_bit_identical(self, tmp_path):
        for shards in SHARDS:
            with ShardedServiceDaemon(
                config(), tmp_path / f"oracle-{shards}", shards=shards
            ) as oracle:
                fill_window(oracle, 0, 4)
                fill_window(oracle, 1, 4)
                expected = [oracle.close_window(0), oracle.close_window(1)]

            journal_dir = tmp_path / f"shards-{shards}"
            daemon = ShardedServiceDaemon(config(), journal_dir, shards=shards)
            fill_window(daemon, 0, 4)
            daemon.close_window(0)
            # Kill mid-window-1: two of four shares journaled, no close.
            assert daemon.submit(0, 1, 1, 100).accepted
            assert daemon.submit(1, 1, 1, 101).accepted
            daemon.hard_stop()

            revived = ShardedServiceDaemon(config(), journal_dir, shards=shards)
            assert revived.recovered
            assert revived.open_windows == (1,)
            assert revived.pending == 2
            # The two journaled shares are dups; the missing two land fresh.
            assert revived.submit(0, 1, 1, 100).admission is Admission.DUPLICATE
            assert revived.submit(2, 1, 1, 102).accepted
            assert revived.submit(3, 1, 1, 103).accepted
            resumed = revived.close_window(1)
            revived.stop()

            records = revived.window_records()
            assert [s.window for s in records] == [0, 1]
            for got, want in zip(records, expected):
                assert got.total == want.total
                assert got.expected == want.expected
                assert got.accepted == want.accepted
            assert resumed.recovered

    def test_recovery_replays_deadline(self, tmp_path):
        for shards in SHARDS:
            journal_dir = tmp_path / f"shards-{shards}"
            daemon = ShardedServiceDaemon(config(), journal_dir, shards=shards)
            fill_window(daemon, 0, 2)
            daemon.close_window(0)
            daemon.hard_stop()
            revived = ShardedServiceDaemon(config(), journal_dir, shards=shards)
            assert revived.submit(9, 0, 0, 5).admission is Admission.LATE
            revived.stop()

    def test_torn_tail_is_clients_loss_not_daemons(self, tmp_path):
        for shards in SHARDS:
            journal_dir = tmp_path / f"shards-{shards}"
            daemon = ShardedServiceDaemon(config(), journal_dir, shards=shards)
            fill_window(daemon, 0, 3)
            daemon.hard_stop()
            journal = journal_dir / "shard-000.wal"
            whole = journal.read_bytes()
            journal.write_bytes(whole + whole[: len(whole) // 4])
            revived = ShardedServiceDaemon(config(), journal_dir, shards=shards)
            assert revived.pending == 3
            # The torn submission was never acked; a re-send is fresh.
            assert revived.submit(3, 0, 0, 103).accepted
            revived.stop()

    def test_tampered_close_total_raises(self, tmp_path):
        for shards in SHARDS:
            journal_dir = closed_window_dir(tmp_path / f"shards-{shards}", shards)
            corrupt(journal_dir, "tampered_total")
            with pytest.raises(ServiceError, match="does not match"):
                ShardedServiceDaemon(config(), journal_dir, shards=shards)

    def test_close_count_mismatch_raises(self, tmp_path):
        for shards in SHARDS:
            journal_dir = closed_window_dir(tmp_path / f"shards-{shards}", shards)
            corrupt(journal_dir, "count_mismatch")
            with pytest.raises(ServiceError, match="record counts"):
                ShardedServiceDaemon(config(), journal_dir, shards=shards)

    def test_duplicate_identity_in_journal_raises(self, tmp_path):
        for shards in SHARDS:
            journal_dir = closed_window_dir(tmp_path / f"shards-{shards}", shards)
            corrupt(journal_dir, "duplicate_identity")
            with pytest.raises(ServiceError, match="duplicate"):
                ShardedServiceDaemon(config(), journal_dir, shards=shards)

    def test_undecodable_journal_record_raises(self, tmp_path):
        for shards in SHARDS:
            journal_dir = closed_window_dir(tmp_path / f"shards-{shards}", shards)
            corrupt(journal_dir, "undecodable")
            with pytest.raises(ServiceError, match="undecodable"):
                ShardedServiceDaemon(config(), journal_dir, shards=shards)

    @pytest.mark.parametrize("host", ["daemon", "supervisor"])
    @pytest.mark.parametrize("kind", sorted(REFUSALS))
    def test_both_hosts_refuse_a_bad_journal(self, tmp_path, host, kind):
        # One checker serves both hosts; the supervisor refuses before it
        # spawns any shard process.
        journal_dir = closed_window_dir(tmp_path / "svc", 2)
        corrupt(journal_dir, kind)
        host_cls = ShardedServiceDaemon if host == "daemon" else ShardSupervisor
        with pytest.raises(ServiceError, match=REFUSALS[kind]):
            host_cls(config(), journal_dir, shards=2)

    def test_fresh_journal_is_not_recovered(self, tmp_path):
        for daemon in each_daemon(tmp_path):
            assert not daemon.recovered
            fill_window(daemon, 0, 2)
            assert not daemon.close_window(0).recovered


def closed_window_dir(journal_dir, shards: int):
    """A hard-killed service directory: window 0 closed, window 1 open."""
    daemon = ShardedServiceDaemon(config(), journal_dir, shards=shards)
    fill_window(daemon, 0, 3)
    daemon.close_window(0)
    fill_window(daemon, 1, 2)
    daemon.hard_stop()
    return journal_dir


def corrupt(journal_dir, kind: str) -> None:
    """Damage a service directory the way ``kind`` names."""
    shard0 = journal_dir / "shard-000.wal"
    if kind == "tampered_total":
        fold_path = journal_dir / "fold.wal"
        close = WindowJournal(fold_path, fsync=False).replay().closes[0]
        fold_path.unlink()
        with WindowJournal(fold_path, fsync=False) as fold:
            fold.append_close(replace(close, total=12345))
    elif kind == "count_mismatch":
        accepted = WindowJournal(shard0, fsync=False).replay().accepted
        shard0.unlink()
        with WindowJournal(shard0, fsync=False) as journal:
            for submission in accepted:
                if submission != accepted[0]:  # drop one window-0 share
                    journal.append_submission(submission)
    else:
        with WindowJournal(shard0, fsync=False) as journal:
            if kind == "duplicate_identity":
                journal.append_submission(ShareSubmission(0, 0, 1, 5))
            elif kind == "misrouted":
                journal.append_submission(ShareSubmission(1, 9, 1, 5))
            else:
                journal._log.append(b"\x07garbage")


class TestShardCore:
    """The shared shard state machine, driven without any host."""

    class Journal:
        def __init__(self):
            self.appended = []

        def append_submission(self, submission):
            self.appended.append(submission)

    def core(self, index=0, shards=1, deadline=-1, **overrides):
        return ShardCore(
            index, shards, config(**overrides), self.Journal(), deadline=deadline
        )

    def test_ladder_order_and_journal_before_accept(self):
        core = self.core(window_capacity=1, queue_capacity=2)
        first = ShareSubmission(1, 0, 1, 5)
        assert core.admit(first).accepted
        assert core.journal.appended == [first]
        # Duplicate beats pause; pause beats the window cap.
        core.paused = True
        assert core.admit(first).admission is Admission.DUPLICATE
        assert core.admit(ShareSubmission(2, 0, 1, 5)).retryable
        core.paused = False
        assert core.admit(ShareSubmission(2, 0, 1, 5)).admission is Admission.SHED
        assert core.admit(ShareSubmission(2, 0, 2, 5)).accepted
        # Two pending: the queue bound answers before anything is journaled.
        assert core.admit(ShareSubmission(3, 0, 3, 5)).retryable
        assert len(core.journal.appended) == 2
        # Late beats duplicate.
        core.close(1)
        assert core.admit(first).admission is Admission.LATE

    def test_misrouted_submission_refused(self):
        core = self.core(index=1, shards=2)
        with pytest.raises(ServiceError, match="routes to shard 0"):
            core.admit(ShareSubmission(4, 0, 0, 5))

    def test_reclose_returns_the_same_set(self):
        core = self.core()
        core.admit(ShareSubmission(1, 0, 0, 5))
        core.admit(ShareSubmission(2, 0, 0, 6))
        first = core.close(0)
        assert [s.device for s in first] == [1, 2]
        assert core.close(0) == first
        assert core.pending == 0

    def test_only_the_last_closed_window_is_kept(self):
        core = self.core()
        core.admit(ShareSubmission(1, 0, 0, 5))
        core.close(0)
        core.admit(ShareSubmission(1, 1, 1, 5))
        core.close(1)
        with pytest.raises(ServiceError, match="already closed"):
            core.close(0)
        assert core.windows == {}

    def test_out_of_order_close_refused_without_change(self):
        core = self.core()
        core.admit(ShareSubmission(1, 0, 0, 5))
        core.admit(ShareSubmission(1, 1, 2, 5))
        with pytest.raises(ServiceError, match="close in order"):
            core.close(2)
        assert core.open_windows == (0, 2)
        assert core.deadline == -1

    def test_replay_splits_at_the_deadline(self):
        core = self.core(deadline=1)
        state = wal.JournalState(
            accepted=[
                ShareSubmission(1, 0, 0, 5),
                ShareSubmission(1, 1, 1, 5),
                ShareSubmission(1, 2, 2, 5),
            ]
        )
        closed = core.replay(state)
        assert sorted(closed) == [0, 1]
        assert core.open_windows == (2,)
        assert core.pending == 1
        # The deadline's own set answers a re-sent close.
        assert core.close(1) == closed[1]
        assert core.journal.appended == []


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"cells": 0},
            {"queue_capacity": 0},
            {"window_capacity": 0},
            {"retry_after_s": 0.0},
            {"retry_after_s": True},
            {"retry_after_s": "0.05"},
            {"retry_after_s": None},
            {"retry_after_s": float("nan")},
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(ServiceError):
            config(**overrides)

    def test_int_retry_hint_is_coerced_to_float(self):
        hint = config(retry_after_s=1).retry_after_s
        assert hint == 1.0 and type(hint) is float
