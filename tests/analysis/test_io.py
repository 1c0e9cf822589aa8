"""Tests for experiment-result persistence (the uniform scenario record)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import Figure1Point, Figure1Result
from repro.analysis.io import figure1_to_dict, load_record, save_record
from repro.analysis.stats import summarize
from repro.errors import ReproError


@pytest.fixture
def sample_result():
    def stats(base):
        return summarize([base, base * 1.1, base * 0.9])

    point = Figure1Point(
        num_nodes=10,
        degree=3,
        s3_latency_ms=stats(3000),
        s4_latency_ms=stats(800),
        s3_radio_ms=stats(3200),
        s4_radio_ms=stats(850),
        s3_success=1.0,
        s4_success=0.97,
    )
    return Figure1Result(testbed="TestBed", points=(point,), iterations=3)


def figure1_record(result):
    """A scenario record carrying a figure1 payload, as Session saves it."""
    return {
        "schema": 1,
        "kind": "scenario-result",
        "scenario": "figure1",
        "payload": figure1_to_dict(result),
    }


class TestFigure1Roundtrip:
    def test_roundtrip_preserves_everything(self, sample_result, tmp_path):
        path = tmp_path / "fig1.json"
        save_record(figure1_record(sample_result), path)
        payload = load_record(path)["payload"]
        assert payload == json.loads(json.dumps(figure1_to_dict(sample_result)))
        assert payload["testbed"] == sample_result.testbed
        assert payload["iterations"] == sample_result.iterations
        original = sample_result.points[0]
        (restored,) = payload["points"]
        assert restored["num_nodes"] == original.num_nodes
        assert restored["s3_latency_ms"]["mean"] == original.s3_latency_ms.mean
        assert restored["s4_success"] == original.s4_success

    def test_file_is_valid_json(self, sample_result, tmp_path):
        path = tmp_path / "fig1.json"
        save_record(figure1_record(sample_result), path)
        data = json.loads(path.read_text())
        assert data["kind"] == "scenario-result"
        assert data["payload"]["kind"] == "figure1"
        assert data["payload"]["schema"] == 1


class TestRecord:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="no result file"):
            load_record(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="corrupt result file"):
            load_record(path)

    def test_wrong_kind(self, sample_result, tmp_path):
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(figure1_to_dict(sample_result)))
        with pytest.raises(ReproError, match="file holds 'figure1'"):
            load_record(path)

    def test_save_refuses_wrong_kind(self, sample_result, tmp_path):
        path = tmp_path / "fig1.json"
        with pytest.raises(ReproError, match="not a scenario record"):
            save_record(figure1_to_dict(sample_result), path)
        assert not path.exists()
