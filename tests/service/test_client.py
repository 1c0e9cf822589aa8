"""ServiceClient tests: one API, two transports, restart-resume queries."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError, SpecError
from repro.scenarios.spec import ServiceSoakSpec
from repro.service import Admission, RetryPolicy, ServiceClient, ServiceConfig
from repro.service.client import STORE_NAME


def config(**overrides) -> ServiceConfig:
    base = dict(seed=77, cells=2, fsync=False)
    base.update(overrides)
    return ServiceConfig(**base)


def feed_window(client: ServiceClient, window: int, devices: int) -> None:
    for device in range(devices):
        result = client.submit(device, window, window, 100 + device)
        assert result.accepted


#: Shard counts the client drain test runs at.
SHARDS = (1, 4)


@pytest.fixture
def service_root(tmp_path):
    return tmp_path / "service"


class TestTransportsShareOneInterface:
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_submit_close_query_round_trip(self, tmp_path, transport):
        with ServiceClient(
            config(), tmp_path / transport, shards=2, transport=transport
        ) as client:
            feed_window(client, 0, devices=6)
            summary = client.close_window(0)
            assert summary.accepted == 6
            assert summary.exact
            answer = client.query(window=0)
            assert answer["closed"]
            assert answer["summary"]["total"] == summary.total
            assert len(answer["contributions"]) == 6

    def test_transports_produce_identical_bits(self, tmp_path):
        extracts = []
        for transport in ("inproc", "socket"):
            with ServiceClient(
                config(), tmp_path / transport, shards=2, transport=transport
            ) as client:
                for window in range(2):
                    feed_window(client, window, devices=6)
                    client.close_window(window)
                extracts.append(
                    {d: b.total for d, b in client.billing_extract().items()}
                )
        assert extracts[0] == extracts[1]

    def test_admission_sequence_is_identical_on_every_transport(self, tmp_path):
        # Both bounds are per shard on every transport: with shards=2 and
        # queue_capacity=3, shard 0 holds three pending shares while
        # shard 1 still has room.
        def drive(client):
            answers = [client.submit(d, 0, 0, 100 + d) for d in range(4)]
            answers.append(client.submit(0, 0, 0, 100))  # duplicate
            answers.append(client.submit(4, 0, 0, 104))  # shard 0 full: shed
            answers.append(client.submit(4, 1, 1, 204))  # shard 0 at 3 pending
            answers.append(client.submit(6, 1, 1, 206))  # queue full: retry
            answers.append(client.submit(5, 1, 1, 205))  # shard 1 has room
            client.pause()
            answers.append(client.submit(7, 1, 1, 207))
            client.resume()
            client.close_window(0)
            answers.append(client.submit(6, 1, 1, 206))  # space freed
            answers.append(client.submit(8, 2, 0, 108))  # late
            client.close_window(1)
            return answers

        runs = {}
        for transport in ("inproc", "socket"):
            with ServiceClient(
                config(window_capacity=2, queue_capacity=3),
                tmp_path / transport,
                shards=2,
                transport=transport,
            ) as client:
                answers = drive(client)
                bills = {d: b.total for d, b in client.billing_extract().items()}
                tallies = [
                    (s.accepted, s.duplicates, s.late, s.shed, s.retried, s.total)
                    for s in client.window_records()
                ]
            runs[transport] = (answers, bills, tallies)
        answers, bills, tallies = runs["inproc"]
        assert [a.admission for a in answers] == [
            Admission.ACCEPTED,
            Admission.ACCEPTED,
            Admission.ACCEPTED,
            Admission.ACCEPTED,
            Admission.DUPLICATE,
            Admission.SHED,
            Admission.ACCEPTED,
            Admission.RETRY_AFTER,
            Admission.ACCEPTED,
            Admission.RETRY_AFTER,
            Admission.ACCEPTED,
            Admission.LATE,
        ]
        assert runs["socket"] == runs["inproc"]

    def test_unknown_transport_rejected(self, service_root):
        with pytest.raises(ServiceError, match="unknown transport"):
            ServiceClient(config(), service_root, transport="carrier-pigeon")

    def test_queue_transport_is_refused(self, service_root):
        # Refused outright: neither entry point may fall back to another
        # transport, and nothing is created on disk.
        with pytest.raises(ServiceError, match="unknown transport"):
            ServiceClient(config(), service_root, transport="queue")
        assert not service_root.exists()
        with pytest.raises(SpecError, match="'inproc' or 'socket'"):
            ServiceSoakSpec(transport="queue")


class TestRestartResume:
    def test_restart_recovers_and_resumes(self, service_root):
        client = ServiceClient(config(), service_root, shards=2)
        feed_window(client, 0, devices=4)
        closed = client.close_window(0)
        # Kill mid-window-1: two journaled shares, no close.
        assert client.submit(0, 1, 1, 200).accepted
        assert client.submit(1, 1, 1, 201).accepted
        client.hard_stop()

        revived = ServiceClient(config(), service_root, shards=2)
        assert revived.recovered
        assert revived.open_windows == (1,)
        # Re-sends of journaled shares dedup; the missing ones land.
        assert revived.submit(0, 1, 1, 200).admission is Admission.DUPLICATE
        assert revived.submit(2, 1, 1, 202).accepted
        assert revived.submit(3, 1, 1, 203).accepted
        resumed = revived.close_window(1)
        assert resumed.recovered
        assert resumed.accepted == 4
        records = revived.window_records()
        assert [s.window for s in records] == [0, 1]
        assert records[0].total == closed.total
        revived.stop()

    def test_query_after_hard_kill_serves_journaled_closes_only(
        self, service_root
    ):
        client = ServiceClient(config(), service_root, shards=2)
        feed_window(client, 0, devices=4)
        client.close_window(0)
        assert client.submit(0, 1, 1, 99).accepted  # window 1 in flight
        client.hard_stop()

        revived = ServiceClient(config(), service_root, shards=2)
        answer = revived.query()
        assert [w["window"] for w in answer["windows"]] == [0]
        assert revived.query(window=1)["closed"] is False
        assert revived.query(window=1)["contributions"] == []
        # The in-flight share is journaled (it was acked) but unbilled
        # until its window durably closes.
        assert revived.query(device=0)["windows"] == 1
        revived.stop()

    def test_store_heals_from_journals_when_publish_was_lost(
        self, service_root
    ):
        client = ServiceClient(config(), service_root, shards=2)
        feed_window(client, 0, devices=4)
        client.close_window(0)
        client.hard_stop()
        # Lose the store entirely: only the daemon journals survive.
        (service_root / STORE_NAME).unlink()
        revived = ServiceClient(config(), service_root, shards=2)
        answer = revived.query()
        assert [w["window"] for w in answer["windows"]] == [0]
        assert answer["devices"]["2"]["total"] == 102
        revived.stop()

    def test_restart_resume_socket_transport(self, service_root):
        client = ServiceClient(
            config(), service_root, shards=2, transport="socket"
        )
        feed_window(client, 0, devices=4)
        client.close_window(0)
        client.hard_stop()
        with pytest.raises(ServiceError, match="stopped"):
            client.submit(9, 1, 1, 1)
        revived = ServiceClient(
            config(), service_root, shards=2, transport="socket"
        )
        assert revived.recovered
        feed_window(revived, 1, devices=4)
        assert revived.close_window(1).accepted == 4
        revived.stop()


class TestQueriesAndLifecycle:
    def test_query_by_device_and_by_window_disjoint(self, service_root):
        with ServiceClient(config(), service_root) as client:
            feed_window(client, 0, devices=3)
            client.close_window(0)
            with pytest.raises(ServiceError, match="not both"):
                client.query(device=1, window=0)
            bill = client.query(device=1)
            assert bill == {
                "device": 1, "total": 101, "windows": 1, "through_window": 0
            }
            assert client.query(device=42)["total"] == 0

    def test_compact_and_retain_keep_bills(self, service_root):
        with ServiceClient(config(), service_root) as client:
            for window in range(4):
                feed_window(client, window, devices=3)
                client.close_window(window)
            before = client.query()["devices"]
            assert client.compact(0) == 1
            assert client.retain(keep_windows=1) == 2
            after = client.query()
            assert [w["window"] for w in after["windows"]] == [3]
            assert after["devices"] == before

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_drain_closes_every_open_window(self, tmp_path, transport):
        for shards in SHARDS:
            service_dir = tmp_path / f"{transport}-{shards}"
            client = ServiceClient(
                config(), service_dir, shards=shards, transport=transport
            )
            feed_window(client, 0, devices=2)
            feed_window(client, 1, devices=3)
            assert client.pending == 5
            summaries = client.drain()
            assert [s.window for s in summaries] == [0, 1]
            assert [s.accepted for s in summaries] == [2, 3]
            # Nothing is left pending, and the store has both closes.
            with ServiceClient(
                config(), service_dir, shards=shards, transport=transport
            ) as revived:
                assert revived.pending == 0
                assert revived.open_windows == ()
                assert revived.store.windows == (0, 1)

    def test_shard_of_routes_by_modulo(self, service_root):
        with ServiceClient(config(), service_root, shards=3) as client:
            assert [client.shard_of(d) for d in range(6)] == [0, 1, 2, 0, 1, 2]
            assert client.shards == 3

    def test_pause_resume_passthrough(self, service_root):
        with ServiceClient(config(), service_root) as client:
            client.pause()
            assert client.paused
            held = client.submit(1, 0, 0, 9)
            assert held.retryable
            client.resume()
            assert client.submit(1, 0, 0, 9).accepted

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_int_retry_hint_answers_as_float(self, tmp_path, transport):
        # ServiceConfig coerces the hint, so the socket reply frame (which
        # carries floats only) answers exactly what inproc answers.
        with ServiceClient(
            config(retry_after_s=1), tmp_path / transport, transport=transport
        ) as client:
            client.pause()
            held = client.submit(1, 0, 0, 9)
            assert held.admission is Admission.RETRY_AFTER
            assert held.retry_after_s == 1.0
            assert type(held.retry_after_s) is float


class TestRetryOptIn:
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_retry_param_accepted_on_every_transport(self, tmp_path, transport):
        with ServiceClient(
            config(), tmp_path / transport, transport=transport
        ) as client:
            result = client.submit(1, 0, 0, 42, retry=RetryPolicy(seed=1))
            assert result.accepted

    def test_retry_rides_out_backpressure(self, service_root):
        with ServiceClient(config(), service_root) as client:
            client.pause()
            resumer = threading.Timer(0.05, client.resume)
            resumer.start()
            try:
                result = client.submit(
                    1, 0, 0, 42, retry=RetryPolicy(seed=1)
                )
            finally:
                resumer.join()
            assert result.accepted

    def test_retry_budget_exhaustion_is_service_error(self, service_root):
        with ServiceClient(config(), service_root) as client:
            client.pause()
            policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0, seed=1)
            with pytest.raises(ServiceError, match="retry budget exhausted"):
                client.submit(1, 0, 0, 42, retry=policy)

    def test_client_wide_default_policy(self, service_root):
        with ServiceClient(
            config(), service_root, retry=RetryPolicy(seed=1)
        ) as client:
            assert client.submit(1, 0, 0, 42).accepted

    def test_final_outcomes_are_never_retried(self, service_root):
        with ServiceClient(
            config(), service_root, retry=RetryPolicy(seed=1)
        ) as client:
            assert client.submit(1, 0, 0, 42).accepted
            echo = client.submit(1, 0, 0, 42)
            assert echo.admission is Admission.DUPLICATE


class TestContextManagerExitPaths:
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_exception_path_hard_stops(self, tmp_path, transport, monkeypatch):
        calls = []
        client = ServiceClient(
            config(), tmp_path / transport, transport=transport
        )
        original = client.hard_stop
        monkeypatch.setattr(
            client, "hard_stop", lambda: (calls.append("hard"), original())[1]
        )
        with pytest.raises(RuntimeError, match="boom"):
            with client:
                client.submit(1, 0, 0, 42)
                raise RuntimeError("boom")
        assert calls == ["hard"]
        # The directory lock went with it: a successor may open.
        with ServiceClient(
            config(), tmp_path / transport, transport=transport
        ) as successor:
            assert successor.recovered

    def test_clean_path_stops_gracefully(self, service_root, monkeypatch):
        client = ServiceClient(config(), service_root)
        calls = []
        original = client.stop
        monkeypatch.setattr(
            client, "stop", lambda: (calls.append("stop"), original())[1]
        )
        with client:
            client.submit(1, 0, 0, 42)
        assert calls == ["stop"]


class TestDeprecatedDaemonImport:
    def test_other_missing_names_raise_attribute_error(self):
        import repro.service as service

        with pytest.raises(AttributeError):
            service.does_not_exist
