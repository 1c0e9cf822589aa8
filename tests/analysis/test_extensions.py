"""Tests for the extension experiments (interference, lifetime)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.experiments import subnetwork_spec
from repro.scenarios import InterferenceSpec, LifetimeSpec, Session
from repro.topology.testbeds import flocklab


@pytest.fixture(scope="module")
def run():
    """Run a scenario spec on a 10-node FlockLab cut; return its payload."""
    small_flocklab = subnetwork_spec(flocklab(), 10)
    with Session() as session:
        yield lambda spec: session.run(spec, deployment=small_flocklab).payload


class TestInterferenceSweep:
    def test_levels_reported(self, run):
        rows = run(InterferenceSpec(levels=(0, 2), iterations=3))
        assert [r["level"] for r in rows] == [0.0, 2.0]

    def test_latency_degrades_with_jamming(self, run):
        rows = run(InterferenceSpec(levels=(0, 3), iterations=4))
        clean, hostile = rows
        if not math.isnan(hostile["s4_latency_ms"]):
            assert hostile["s4_latency_ms"] >= clean["s4_latency_ms"] * 0.95

    def test_clean_level_fully_reliable(self, run):
        rows = run(InterferenceSpec(levels=(0,), iterations=4))
        assert rows[0]["s3_success"] > 0.9
        assert rows[0]["s4_success"] > 0.9


class TestLifetimeProjection:
    def test_s4_gain(self, run):
        out = run(LifetimeSpec(rounds=3))
        assert out["lifetime_gain"] > 1.5
        assert out["s4_lifetime_days"] > out["s3_lifetime_days"]

    def test_reliability_reported(self, run):
        out = run(LifetimeSpec(rounds=3))
        assert 0.0 <= out["s3_reliability"] <= 1.0
        assert 0.0 <= out["s4_reliability"] <= 1.0
