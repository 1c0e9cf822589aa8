"""Soak tests: kill-offset bit-identity sweep, oracle pinning, faults, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faultplan import FaultEvent, FaultPlan
from repro.scenarios import Session, registry
from repro.scenarios.spec import ServiceSoakSpec
from repro.service.loadgen import (
    device_ids,
    expected_window_total,
    metering_reading,
    window_submissions,
)
from repro.service.soak import run_service_soak
from repro.service.windows import aggregate_window


def small_spec(**overrides) -> ServiceSoakSpec:
    base = dict(
        devices=5,
        windows=2,
        seed=4242,
        base_load_wh=120,
        cells=2,
        duplicate_every=0,
        late_replays=0,
        fsync=False,
    )
    base.update(overrides)
    return ServiceSoakSpec(**base)


def window_totals(payload: dict) -> list[tuple[int, int]]:
    return [(row["window"], row["total"]) for row in payload["windows"]]


class TestKillRestartBitIdentity:
    def test_every_kill_offset_reproduces_uninterrupted_totals(self):
        """The PR's core property: kill anywhere, resume, same bits.

        Sweeps a hard kill over *every* accepted-share offset of a small
        soak and demands the per-window totals match the uninterrupted
        run exactly.
        """
        spec = small_spec()
        oracle = run_service_soak(spec)
        assert oracle["all_exact"] and oracle["oracle_match"]
        assert oracle["kills"] == 0
        baseline = window_totals(oracle)
        total_shares = spec.devices * spec.windows
        assert oracle["accepted"] == total_shares
        for offset in range(1, total_shares + 1):
            payload = run_service_soak(small_spec(kill_at=(offset,)))
            assert payload["kills"] == 1, f"kill at {offset} never fired"
            assert window_totals(payload) == baseline, (
                f"kill at accepted offset {offset} changed window totals"
            )
            assert payload["all_exact"] and payload["oracle_match"]

    def test_multiple_kills_in_one_soak(self):
        spec = small_spec()
        baseline = window_totals(run_service_soak(spec))
        payload = run_service_soak(small_spec(kill_at=(2, 6, 9)))
        assert payload["kills"] == 3
        assert len(payload["recoveries"]) == 3
        assert window_totals(payload) == baseline
        for recovery in payload["recoveries"]:
            assert recovery["replayed_records"] >= recovery["at_accepted"]

    def test_kill_via_fault_plan(self):
        plan = FaultPlan(events=(FaultEvent(kind="kill_daemon", round=4),))
        payload = run_service_soak(small_spec(faults=plan))
        assert payload["kills"] == 1
        assert payload["recoveries"][0]["at_accepted"] == 4
        assert payload["all_exact"] and payload["oracle_match"]

    def test_torn_tail_after_kill_recovers(self, tmp_path):
        service_dir = tmp_path / "torn-service"
        spec = small_spec()
        baseline = window_totals(run_service_soak(spec))
        # A soak with a kill leaves journals behind; corrupt the shard
        # journal's tail with a partial frame, then verify both journals
        # still replay clean (torn tails truncate, closed windows hold).
        payload = run_service_soak(
            small_spec(kill_at=(3,)), service_dir=service_dir
        )
        assert window_totals(payload) == baseline
        shard_wal = service_dir / "shard-000.wal"
        whole = shard_wal.read_bytes()
        shard_wal.write_bytes(whole + whole[:7])  # torn partial frame
        from repro.service.wal import WindowJournal

        state = WindowJournal(shard_wal, fsync=False).replay()
        assert state.skipped == 0
        assert len(state.accepted) == spec.devices * spec.windows
        fold = WindowJournal(service_dir / "fold.wal", fsync=False).replay()
        assert len(fold.closes) == spec.windows


class TestShardedScaleOut:
    def sharded_spec(self, **overrides) -> ServiceSoakSpec:
        base = dict(
            devices=10,
            windows=2,
            seed=4242,
            base_load_wh=120,
            shards=4,
            duplicate_every=0,
            late_replays=0,
            fsync=False,
        )
        base.update(overrides)
        return ServiceSoakSpec(**base)

    def test_sharded_kill_offset_sweep_reproduces_totals(self):
        """Kill the sharded service at every accepted offset; same bits.

        The sharded analogue of the single-journal sweep: 4 journals, a
        hard kill after each possible number of accepted shares, and the
        per-window folded totals and per-device billing must match the
        uninterrupted run exactly.
        """
        spec = self.sharded_spec()
        oracle = run_service_soak(spec)
        assert oracle["all_exact"] and oracle["oracle_match"]
        assert oracle["billing_exact"] is True
        baseline = window_totals(oracle)
        total = spec.devices * spec.windows
        for offset in range(1, total + 1):
            payload = run_service_soak(self.sharded_spec(kill_at=(offset,)))
            assert payload["kills"] == 1, f"kill at {offset} never fired"
            assert window_totals(payload) == baseline, (
                f"kill at accepted offset {offset} changed sharded totals"
            )
            assert payload["all_exact"] and payload["oracle_match"]
            assert payload["billing_exact"] is True

    def test_concurrent_producers_match_serial_totals(self):
        serial = run_service_soak(self.sharded_spec())
        concurrent = run_service_soak(
            self.sharded_spec(producers=4, transport="inproc")
        )
        assert window_totals(concurrent) == window_totals(serial)
        assert concurrent["billing_exact"] is True
        assert concurrent["accepted_per_shard"] == serial["accepted_per_shard"]

    def test_concurrent_producers_survive_kills(self):
        baseline = window_totals(run_service_soak(self.sharded_spec()))
        payload = run_service_soak(
            self.sharded_spec(
                producers=4, transport="inproc", kill_at=(4, 13),
                duplicate_every=3,
            )
        )
        assert payload["kills"] == 2
        assert window_totals(payload) == baseline
        assert payload["all_exact"] and payload["billing_exact"] is True

    def test_shard_targeted_kill_anchors_on_shard_traffic(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="kill_daemon", cell=3, round=2),)
        )
        payload = run_service_soak(self.sharded_spec(faults=plan))
        assert payload["kills"] == 1
        assert payload["recoveries"][0]["shard"] == 3
        assert payload["all_exact"] and payload["billing_exact"] is True

    def test_shard_kill_targeting_missing_shard_rejected(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="kill_daemon", cell=7, round=2),)
        )
        with pytest.raises(Exception, match="shard"):
            self.sharded_spec(faults=plan)

    def test_shard_kill_anchor_beyond_shard_traffic_rejected(self):
        # Shard 2 of 4 sees devices 2 and 6: 2 devices * 2 windows = 4.
        plan = FaultPlan(
            events=(FaultEvent(kind="kill_daemon", cell=2, round=5),)
        )
        with pytest.raises(Exception, match="at most 4"):
            self.sharded_spec(faults=plan)

    def test_pause_needs_single_producer(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="pause_ingest", round=3, duration=2),)
        )
        with pytest.raises(Exception, match="producers == 1"):
            self.sharded_spec(producers=2, transport="inproc", faults=plan)

    def test_more_shards_than_devices_rejected(self):
        with pytest.raises(Exception, match="shards"):
            self.sharded_spec(devices=3, shards=4)

    def test_single_shard_payload_matches_pre_sharding_totals(self):
        """shards=1 must stay bit-identical to the single-journal daemon."""
        spec = small_spec()
        single = run_service_soak(spec)
        assert single["shards"] == 1
        explicit = run_service_soak(small_spec(shards=1))
        assert window_totals(explicit) == window_totals(single)


class TestFaultsAndBackpressure:
    def test_pause_ingest_forces_retries_without_losing_shares(self):
        plan = FaultPlan(events=(FaultEvent(kind="pause_ingest", round=3, duration=4),))
        payload = run_service_soak(small_spec(faults=plan))
        assert payload["attempts"] > payload["accepted"]
        assert payload["all_exact"] and payload["oracle_match"]
        assert payload["dropped"] == 0

    def test_window_capacity_degrades_coverage_not_correctness(self):
        payload = run_service_soak(small_spec(window_capacity=3))
        for row in payload["windows"]:
            assert row["accepted"] == 3
            assert row["shed"] == 2
            assert row["degraded"]
            assert row["exact"]  # total still matches the accepted set
            assert row["oracle_match"] is None  # partial coverage
        assert payload["all_exact"]
        # 5 devices, capacity 3 -> 2 shed per window across 2 windows.
        assert payload["dropped"] == 4

    def test_duplicate_and_late_probes(self):
        payload = run_service_soak(
            small_spec(duplicate_every=2, late_replays=1)
        )
        assert payload["duplicates_rejected"] == payload["accepted"] // 2
        assert payload["late_rejected"] == 1  # windows-1 probes
        assert payload["all_exact"] and payload["oracle_match"]


class TestMeteringOraclePinning:
    def test_loadgen_formula_matches_batch_metering_scenario(self):
        """The soak's load is the batch ``metering`` consumption model."""
        from repro.topology.testbeds import testbed_by_name

        result = Session().run(
            registry.get("metering").spec_type.from_dict(
                {"periods": 2, "base_load_wh": 150, "testbed": "flocklab"}
            )
        )
        nodes = testbed_by_name("flocklab").topology.node_ids
        for row in result.payload["periods"]:
            period = row["period"]
            assert row["true_total_wh"] == expected_window_total(
                nodes, period, 150
            )
            assert row["true_total_wh"] == sum(
                metering_reading(node, period, 150) for node in nodes
            )

    def test_aggregate_window_equals_metering_oracle(self):
        ids = device_ids(9)
        for window in range(3):
            submissions = window_submissions(ids, window, 200, seed=5)
            result = aggregate_window(submissions, seed=5, window=window, cells=3)
            assert result.total == expected_window_total(ids, window, 200)

    def test_submission_order_does_not_change_totals(self):
        ids = device_ids(6)
        submissions = window_submissions(ids, 0, 100, seed=9)
        forward = aggregate_window(submissions, 9, 0, cells=2)
        backward = aggregate_window(list(reversed(submissions)), 9, 0, cells=2)
        assert forward.total == backward.total
        assert forward.expected == backward.expected


class TestScenarioAndCli:
    def test_spec_validation_rejects_bad_kill_offsets(self):
        with pytest.raises(Exception, match="kill_at"):
            small_spec(kill_at=(999,))

    def test_spec_rejects_campaign_faults(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", round=1, cell=0),))
        with pytest.raises(Exception, match="campaign-only"):
            small_spec(faults=plan)

    def test_scenario_runs_via_session(self):
        spec = ServiceSoakSpec.from_dict(
            {"devices": 6, "windows": 2, "cells": 2, "kill_at": [4], "fsync": False}
        )
        result = Session().run(spec)
        assert result.ok
        assert result.payload["kills"] == 1

    def test_cli_run_service_soak(self, capsys):
        code = main([
            "run", "service_soak",
            "--devices", "6", "--windows", "2", "--cells", "2",
            "--kill-at", "3", "--fsync", "false",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "hard kill(s)" in out
        assert "journals hold" in out

    def test_cli_malformed_faults_exit_2(self, capsys):
        code = main([
            "run", "service_soak",
            "--faults", json.dumps({"events": [{"kind": "meteor", "round": 1}]}),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_cli_campaign_fault_in_soak_exit_2(self, capsys):
        code = main([
            "run", "service_soak",
            "--faults",
            json.dumps({"events": [{"kind": "crash", "round": 1, "cell": 0}]}),
        ])
        assert code == 2
        assert "campaign-only" in capsys.readouterr().err

    def test_chaos_rejects_service_faults_exit_2(self, capsys):
        code = main([
            "run", "chaos",
            "--faults",
            json.dumps({"events": [{"kind": "kill_daemon", "round": 1}]}),
        ])
        assert code == 2
        assert "service-only" in capsys.readouterr().err
