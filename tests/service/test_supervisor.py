"""Cross-process supervision tests: the kill-anywhere property over sockets.

The acceptance pin for the socket transport: SIGKILL any shard process
at any accepted-share offset, let the supervisor restart it from its
WAL, and the per-device billing totals are bit-identical to a
never-killed oracle.  Plus the boundary's failure taxonomy — lost acks
come back ``DUPLICATE``, stalled replies miss deadlines and retry,
restarted shards can never accept closed windows, and one directory
admits one live service at a time.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cli import main
from repro.errors import ServiceError, TransportError
from repro.service import supervisor as supervisor_module
from repro.service.client import ServiceClient
from repro.service.daemon import Admission, ServiceConfig
from repro.service.transport import RetryPolicy
from repro.service.wal import live_service_pid

DEVICES = 4
WINDOWS = 2
SHARDS = 2

RETRY = RetryPolicy(max_attempts=60, total_deadline_s=60.0)


def config() -> ServiceConfig:
    return ServiceConfig(seed=5, cells=2, fsync=False)


def value_of(device: int, window: int) -> int:
    return 100 * (window + 1) + device


def socket_client(service_dir) -> ServiceClient:
    return ServiceClient(
        config(), service_dir, shards=SHARDS, transport="socket"
    )


def oracle_extract(tmp_path):
    """Per-device totals from a never-killed in-process run."""
    with ServiceClient(
        config(), tmp_path / "oracle", shards=SHARDS
    ) as client:
        for window in range(WINDOWS):
            for device in range(DEVICES):
                assert client.submit(
                    device, window, window, value_of(device, window)
                ).accepted
            client.close_window(window)
        return {
            device: bill.total
            for device, bill in client.billing_extract().items()
        }


class TestKillAnywhere:
    def test_offset_sweep_is_bit_identical_to_oracle(self, tmp_path):
        """The tentpole acceptance: kill at every accepted-share offset."""
        oracle = oracle_extract(tmp_path)
        total_shares = DEVICES * WINDOWS
        for offset in range(1, total_shares + 1):
            service_dir = tmp_path / f"kill-{offset}"
            accepted = 0
            killed = None
            with socket_client(service_dir) as client:
                for window in range(WINDOWS):
                    for device in range(DEVICES):
                        result = client.submit(
                            device,
                            window,
                            window,
                            value_of(device, window),
                            retry=RETRY,
                        )
                        # After a kill the retry policy may land the
                        # re-send as DUPLICATE; both mean "journaled".
                        assert result.admission in (
                            Admission.ACCEPTED,
                            Admission.DUPLICATE,
                        ), (offset, window, device, result)
                        accepted += 1
                        if accepted == offset:
                            killed = client.kill_shard(
                                client.shard_of(device)
                            )
                    summary = client.close_window(window)
                    assert summary.exact, (offset, summary)
                assert killed is not None and killed > 0
                extract = {
                    device: bill.total
                    for device, bill in client.billing_extract().items()
                }
                assert extract == oracle, f"offset {offset} diverged"
                assert client.restarts >= 1

    def test_restart_resume_across_supervisors(self, tmp_path):
        """Hard-stop the whole service mid-window; a new supervisor over
        the same directory resumes into bit-identical state."""
        oracle = oracle_extract(tmp_path)
        service_dir = tmp_path / "resume"
        client = socket_client(service_dir)
        try:
            for device in range(DEVICES):
                assert client.submit(
                    device, 0, 0, value_of(device, 0)
                ).accepted
            client.close_window(0)
            for device in range(2):
                assert client.submit(
                    device, 1, 1, value_of(device, 1)
                ).accepted
        finally:
            client.hard_stop()
        with socket_client(service_dir) as fresh:
            assert fresh.recovered
            assert fresh.pending == 2
            dup = fresh.submit(0, 1, 1, value_of(0, 1))
            assert dup.admission is Admission.DUPLICATE
            for device in range(2, DEVICES):
                assert fresh.submit(
                    device, 1, 1, value_of(device, 1)
                ).accepted
            summary = fresh.close_window(1)
            assert summary.exact and summary.recovered
            extract = {
                device: bill.total
                for device, bill in fresh.billing_extract().items()
            }
            assert extract == oracle


class TestFaultTaxonomy:
    def test_dropped_ack_resend_is_duplicate(self, tmp_path):
        with socket_client(tmp_path / "drop") as client:
            client.inject_drop(0, 1)
            with pytest.raises(TransportError):
                client.submit(0, 0, 0, 7)  # admitted, ack dropped
            echo = client.submit(0, 0, 0, 7)
            assert echo.admission is Admission.DUPLICATE
            # The share landed exactly once.
            summary = client.close_window(0)
            assert summary.accepted == 1 and summary.total == 7

    def test_retry_policy_absorbs_dropped_ack(self, tmp_path):
        with socket_client(tmp_path / "drop-retry") as client:
            client.inject_drop(0, 1)
            result = client.submit(0, 0, 0, 7, retry=RETRY)
            assert result.admission is Admission.DUPLICATE
            assert client.close_window(0).total == 7

    def test_delayed_reply_misses_the_deadline(self, tmp_path):
        client = ServiceClient(
            config(),
            tmp_path / "delay",
            shards=SHARDS,
            transport="socket",
            request_deadline_s=0.1,
        )
        try:
            client.inject_delay(0, 1, 0.5)
            with pytest.raises(TransportError, match="deadline"):
                client.submit(0, 0, 0, 7)
            # The stalled reply was still an admission: journal-before-
            # ack means the re-send is a DUPLICATE, not a second share.
            result = client.submit(0, 0, 0, 7, retry=RETRY)
            assert result.admission is Admission.DUPLICATE
            assert client.close_window(0).total == 7
        finally:
            client.stop()

    def test_restarted_shard_cannot_accept_closed_window(self, tmp_path):
        with socket_client(tmp_path / "late") as client:
            assert client.submit(0, 0, 0, 7).accepted
            client.close_window(0)
            client.kill_shard(0)
            # Ride out the restart, then probe the closed window: the
            # supervisor's fold deadline is authoritative.
            probe = client.submit(2, 9, 1, 1, retry=RETRY)
            assert probe.admission in (
                Admission.ACCEPTED,
                Admission.DUPLICATE,
            )
            late = client.submit(0, 5, 0, 3)
            assert late.admission is Admission.LATE

    def test_shard_killed_mid_close_keeps_the_window_closed(
        self, tmp_path, monkeypatch
    ):
        """Shard 0 answers CLOSE(0), is SIGKILLed and respawns before the
        fold lands: it must come back with window 0 closed, so no share
        is acknowledged into a window the fold has already counted."""
        oracle = oracle_extract(tmp_path)
        service_dir = tmp_path / "mid-close"
        fold = supervisor_module.aggregate_shards
        mid_close = []
        with socket_client(service_dir) as client:

            def kill_during_fold(*args):
                monkeypatch.setattr(supervisor_module, "aggregate_shards", fold)
                client.kill_shard(0)
                deadline = time.monotonic() + 30.0
                while not client.supervisor.restart_log:
                    assert time.monotonic() < deadline, "monitor never respawned"
                    time.sleep(0.01)
                mid_close.append(client.submit(100, 0, 0, 7, retry=RETRY))
                return fold(*args)

            for window in range(WINDOWS):
                for device in range(DEVICES):
                    assert client.submit(
                        device, window, window, value_of(device, window)
                    ).accepted
                if window == 0:
                    monkeypatch.setattr(
                        supervisor_module, "aggregate_shards", kill_during_fold
                    )
                summary = client.close_window(window)
                assert summary.exact and summary.accepted == DEVICES
            assert [r.admission for r in mid_close] == [Admission.LATE]
            extract = {
                device: bill.total
                for device, bill in client.billing_extract().items()
            }
            assert extract == oracle
        # A new supervisor over the directory re-verifies every fold.
        with socket_client(service_dir) as fresh:
            assert fresh.recovered
            assert [s.accepted for s in fresh.window_records()] == [DEVICES] * WINDOWS
            assert {
                device: bill.total
                for device, bill in fresh.billing_extract().items()
            } == oracle

    def test_monitor_restarts_a_crashed_shard(self, tmp_path):
        with socket_client(tmp_path / "monitor") as client:
            pid = client.kill_shard(1)
            deadline = time.monotonic() + 30.0
            # ``restarts`` counts before the respawn and the log entry
            # lands after it, so poll the log: that is what is read below.
            while not client.supervisor.restart_log:
                assert time.monotonic() < deadline, "monitor never respawned"
                time.sleep(0.01)
            assert client.restarts >= 1
            assert client.submit(1, 0, 0, 5, retry=RETRY).admission in (
                Admission.ACCEPTED,
                Admission.DUPLICATE,
            )
            assert client.supervisor.restart_log[0]["shard"] == 1
            assert pid != client.supervisor._processes[1].pid


class TestServiceDirLock:
    def test_one_live_service_per_directory(self, tmp_path):
        service_dir = tmp_path / "locked"
        with socket_client(service_dir) as client:
            assert live_service_pid(service_dir) == os.getpid()
            with pytest.raises(ServiceError, match="already live"):
                ServiceClient(config(), service_dir, shards=SHARDS)
            assert client.submit(0, 0, 0, 1).accepted
        # Released on stop: a successor may own the directory.
        assert live_service_pid(service_dir) is None
        with socket_client(service_dir) as successor:
            assert successor.recovered

    def test_query_cli_answers_from_checkpoint_while_live(
        self, tmp_path, capsys
    ):
        service_dir = tmp_path / "live-query"
        with socket_client(service_dir) as client:
            for device in range(DEVICES):
                assert client.submit(
                    device, 0, 0, value_of(device, 0)
                ).accepted
            client.close_window(0)
            # Window 1 is open (journaled but unclosed) when the query
            # lands; the CLI must answer from the store, stale but sane.
            assert client.submit(0, 1, 1, value_of(0, 1)).accepted
            assert main(["query", str(service_dir)]) == 0
            captured = capsys.readouterr()
            assert "service is live" in captured.err
            assert "window" in captured.out
        # Dead service: same query, no warning, same closed windows.
        assert main(["query", str(service_dir)]) == 0
        captured = capsys.readouterr()
        assert "service is live" not in captured.err
