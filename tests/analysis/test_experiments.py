"""Tests for the experiment campaigns (small, fast configurations)."""

from __future__ import annotations


import pytest

from repro.analysis.experiments import (
    build_engines,
    degree_for,
    round_secrets,
    subnetwork_spec,
)
from repro.core.config import CryptoMode
from repro.errors import ChaosError, ConfigurationError
from repro.phy.channel import ChannelParameters
from repro.scenarios import AblationSpec, FaultToleranceSpec, Figure1Spec, Session
from repro.topology.generators import grid
from repro.topology.testbeds import TestbedSpec as BedSpec


@pytest.fixture(scope="module")
def mini_spec():
    """A small fast synthetic 'testbed' for experiment-harness tests."""
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
        name="mini",
        extras={"s4_sharing_ntx": 4, "s4_redundancy": 1},
    )


@pytest.fixture(scope="module")
def run(mini_spec):
    """Run a scenario spec on the mini deployment; return its payload."""
    with Session() as session:
        yield lambda spec: session.run(spec, deployment=mini_spec).payload


class TestHelpers:
    def test_degree_rule(self):
        assert degree_for(26) == 8
        assert degree_for(45) == 15
        assert degree_for(3) == 1  # floored at 1

    def test_round_secrets_deterministic(self):
        assert round_secrets([0, 1], 3) == round_secrets([0, 1], 3)
        assert round_secrets([0, 1], 3) != round_secrets([0, 1], 4)

    def test_subnetwork_full_size_identity(self, mini_spec):
        assert subnetwork_spec(mini_spec, 9) is mini_spec

    def test_subnetwork_smaller(self, mini_spec):
        sub = subnetwork_spec(mini_spec, 4)
        assert len(sub.topology) == 4
        # Positions preserved from the parent deployment.
        for node in sub.topology.node_ids:
            assert sub.topology.position(node) == mini_spec.topology.position(node)

    def test_build_engines_share_degree(self, mini_spec):
        s3, s4 = build_engines(mini_spec, degree=2)
        assert s3.config.degree == s4.config.degree == 2


class TestFigure1:
    def test_sweep_structure(self, run):
        result = run(Figure1Spec(testbed="mini", iterations=3, sizes=(4, 9)))
        assert result.testbed == "mini"
        assert [p.num_nodes for p in result.points] == [4, 9]
        assert result.full_network_point.num_nodes == 9

    def test_s4_wins_at_full_size(self, run):
        result = run(Figure1Spec(testbed="mini", iterations=3, sizes=(9,)))
        point = result.full_network_point
        assert point.latency_ratio > 1.0
        assert point.radio_ratio > 1.0

    def test_cost_grows_with_network(self, run):
        result = run(Figure1Spec(testbed="mini", iterations=3, sizes=(4, 9)))
        small, large = result.points
        assert small.s3_latency_ms.mean < large.s3_latency_ms.mean
        assert small.s4_latency_ms.mean < large.s4_latency_ms.mean

    def test_unknown_point_rejected(self, run):
        result = run(Figure1Spec(testbed="mini", iterations=2, sizes=(9,)))
        with pytest.raises(ConfigurationError):
            result.point(5)

    def test_real_crypto_mode_runs(self, run):
        result = run(
            Figure1Spec(
                testbed="mini",
                iterations=2,
                sizes=(9,),
                crypto_mode=CryptoMode.REAL,
            )
        )
        assert result.full_network_point.s4_success > 0


class TestFaultTolerance:
    def test_zero_failures_full_success(self, run):
        rows = run(
            FaultToleranceSpec(testbed="mini", failure_counts=(0,), iterations=4)
        )
        assert rows[0]["success_fraction"] > 0.9

    def test_within_redundancy_survives(self, run):
        rows = run(
            FaultToleranceSpec(testbed="mini", failure_counts=(0, 1), iterations=4)
        )
        # redundancy 1: one collector loss should be mostly survivable.
        assert rows[1]["success_fraction"] > 0.5

    def test_too_many_failures_rejected(self, run):
        # Unsurvivable loss is a structured ChaosError (one-line, exit 1
        # at the CLI), never an unhandled traceback.
        with pytest.raises(ChaosError, match="unsurvivable"):
            run(
                FaultToleranceSpec(
                    testbed="mini", failure_counts=(99,), iterations=1
                )
            )


class TestAblation:
    def test_three_variants_ordered(self, run):
        rows = run(AblationSpec(testbed="mini", iterations=3))
        by_name = {r["variant"]: r for r in rows}
        assert set(by_name) == {"s3", "s4_no_early_off", "s4"}
        # Early-off only affects energy, not latency.
        assert by_name["s4"]["radio_ms"] <= by_name["s4_no_early_off"]["radio_ms"]
        # Both S4 flavours beat S3 on both metrics.
        assert by_name["s4"]["latency_ms"] < by_name["s3"]["latency_ms"]
        assert by_name["s4_no_early_off"]["latency_ms"] < by_name["s3"]["latency_ms"]
