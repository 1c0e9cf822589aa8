"""Session tests: the envelope contract, deployment overrides, dict specs."""

from __future__ import annotations

import json

import pytest

from repro.analysis.io import load_record
from repro.core.config import CryptoMode
from repro.errors import SpecError
from repro.phy.channel import ChannelParameters
from repro.scenarios import CoverageSpec, Figure1Spec, Session
from repro.topology.generators import grid
from repro.topology.testbeds import TestbedSpec as BedSpec


@pytest.fixture(scope="module")
def mini_spec():
    # An ad-hoc deployment no testbed name resolves to: every run passes
    # it through Session.run(..., deployment=...).
    topology = grid(3, 3, spacing_m=5.0, jitter_m=0.5, seed=4)
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
        name="mini-scn",
        extras={"s4_sharing_ntx": 4, "s4_redundancy": 1},
    )


class TestEnvelope:
    def test_envelope_fields(self, mini_spec):
        spec = Figure1Spec(testbed=mini_spec.name, iterations=2, sizes=(4,))
        with Session(metrics="summary") as session:
            result = session.run(spec, deployment=mini_spec)
        assert result.scenario == "figure1"
        assert result.spec == spec
        assert result.deployment == "mini-scn"
        assert result.elapsed_s > 0
        assert result.backend["metrics"] == "summary"
        assert result.backend["workers"] == 1
        assert isinstance(result.backend["fastpath"], bool)
        assert result.ok

    def test_record_round_trips_through_disk(self, mini_spec, tmp_path):
        spec = Figure1Spec(testbed=mini_spec.name, iterations=2, sizes=(4,))
        with Session() as session:
            result = session.run(spec, deployment=mini_spec)
        record = result.to_dict()
        json.dumps(record)  # must be JSON-serializable as-is
        path = tmp_path / "record.json"
        result.save(path)
        loaded = load_record(path)
        assert loaded == json.loads(json.dumps(record))
        assert loaded["kind"] == "scenario-result"
        assert loaded["scenario"] == "figure1"
        assert loaded["spec"]["scenario"] == "figure1"
        assert loaded["spec"]["iterations"] == 2

    def test_testbed_resolution_by_name(self):
        with Session() as session:
            result = session.run(Figure1Spec(iterations=2, sizes=(3,)))
        assert result.deployment == "FlockLab"
        assert result.payload.testbed == "FlockLab"

    def test_unknown_testbed_is_a_spec_error(self):
        with Session() as session:
            with pytest.raises(SpecError):
                session.run(Figure1Spec(testbed="atlantis", iterations=2))

    def test_bad_metrics_is_a_spec_error(self):
        with pytest.raises(SpecError):
            Session(metrics="dense")

    def test_injected_executor_is_not_closed(self, mini_spec):
        from repro.analysis.campaign import CampaignExecutor

        with CampaignExecutor(workers=1) as executor:
            with Session(executor=executor) as session:
                session.run(
                    Figure1Spec(testbed=mini_spec.name, iterations=2, sizes=(4,)),
                    deployment=mini_spec,
                )
            # Session exit must leave the injected executor usable.
            assert executor.run_units([]) == []

    def test_session_reusable_across_scenarios(self, mini_spec):
        with Session() as session:
            first = session.run(
                Figure1Spec(testbed=mini_spec.name, iterations=2, sizes=(4,)),
                deployment=mini_spec,
            )
            second = session.run(
                CoverageSpec(testbed=mini_spec.name, ntx_values=(2,), iterations=2),
                deployment=mini_spec,
            )
        assert first.scenario == "figure1"
        assert second.scenario == "coverage"


class TestNewScenarios:
    def test_metering_window(self, mini_spec):
        from repro.scenarios import MeteringSpec

        with Session() as session:
            result = session.run(
                MeteringSpec(periods=2, crypto_mode=CryptoMode.STUB),
                deployment=mini_spec,
            )
        payload = result.payload
        assert len(payload["periods"]) == 2
        assert payload["all_correct"]
        assert payload["window_total_wh"] == sum(
            row["true_total_wh"] for row in payload["periods"]
        )

    def test_cells_sweep_exact_at_every_granularity(self):
        from repro.scenarios import CellsSweepSpec

        with Session() as session:
            result = session.run(
                CellsSweepSpec(nodes=60, cell_counts=(2, 3), iterations=2)
            )
        assert [row["cells"] for row in result.payload] == [2, 3]
        assert all(row["all_match"] for row in result.payload)
        assert result.ok

    def test_sharded_grid_matches_flat_oracle(self):
        from repro.scenarios import GridShardedSpec

        with Session() as session:
            result = session.run(
                GridShardedSpec(nodes=80, cells=4, iterations=2)
            )
        assert result.payload["matches_flat"]
        assert result.payload["all_match"]
        assert len(result.payload["cell_sizes"]) == 4

    def test_quickstart_round(self):
        from repro.scenarios import QuickstartSpec

        with Session() as session:
            result = session.run(QuickstartSpec(crypto_mode=CryptoMode.STUB))
        assert result.payload["all_correct"]
        assert result.payload["num_nodes"] == 8


class TestDictSpecs:
    """``Session.run`` takes plain mappings: the JSON-file path, inline."""

    DICT_SPEC = {
        "scenario": "service_soak",
        "devices": 6,
        "windows": 2,
        "cells": 2,
        "shards": 2,
        "kill_at": [4],
        "duplicate_every": 0,
        "late_replays": 0,
        "fsync": False,
    }

    def test_dict_spec_is_bit_identical_to_explicit_spec(self):
        from repro.cli import _strip_volatile
        from repro.scenarios import ServiceSoakSpec

        explicit = ServiceSoakSpec.from_dict(
            {k: v for k, v in self.DICT_SPEC.items() if k != "scenario"}
        )
        with Session() as session:
            from_dict = session.run(dict(self.DICT_SPEC))
            from_spec = session.run(explicit)
        assert from_dict.spec == explicit
        # Identical up to wall-clock noise: the same volatile keys the
        # `repro compare` command strips.
        assert _strip_volatile(from_dict.payload) == _strip_volatile(
            from_spec.payload
        )
        assert from_dict.scenario == "service_soak"

    def test_dict_spec_requires_scenario_key(self):
        with pytest.raises(SpecError, match="scenario"):
            Session().run({"devices": 6})

    def test_dict_spec_unknown_scenario(self):
        with pytest.raises(SpecError, match="unknown scenario"):
            Session().run({"scenario": "time-travel"})

    def test_dict_spec_bad_field_is_spec_error(self):
        with pytest.raises(SpecError, match="does not accept"):
            Session().run({"scenario": "service_soak", "warp": 9})
