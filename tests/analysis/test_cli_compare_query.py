"""CLI tests for ``repro compare`` and ``repro query``."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import fastpath
from repro.cli import main
from repro.service import ServiceClient, ServiceConfig


#: ``repro run quickstart`` with the spec below, saved before the
#: fingerprint lost its ``vector`` key.
LEGACY_RECORD = pathlib.Path(__file__).parent / "fixtures" / "quickstart-vector-fingerprint.json"


def run_record(tmp_path, name: str, **spec) -> str:
    """Run the quickstart scenario via the CLI and save a record."""
    record = tmp_path / f"{name}.json"
    spec_file = tmp_path / f"{name}.spec.json"
    base = {"scenario": "quickstart", "columns": 4, "rows": 2, "seed": 2024}
    base.update(spec)
    spec_file.write_text(json.dumps(base))
    assert main([
        "run", "quickstart", "--spec", str(spec_file), "--save", str(record)
    ]) == 0
    return str(record)


class TestCompareCommand:
    def test_identical_records_exit_0(self, tmp_path, capsys):
        a = run_record(tmp_path, "a")
        b = run_record(tmp_path, "b")
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "match" in out

    def test_different_backends_still_match(self, tmp_path, capsys):
        a = run_record(tmp_path, "serial")
        spec_file = tmp_path / "serial.spec.json"
        record = tmp_path / "workers.json"
        assert main([
            "run", "quickstart", "--spec", str(spec_file),
            "--save", str(record), "--workers", "2",
        ]) == 0
        assert main(["compare", a, str(record)]) == 0

    def test_spec_mismatch_exit_2(self, tmp_path, capsys):
        a = run_record(tmp_path, "a")
        other = run_record(tmp_path, "other", seed=777)
        assert main(["compare", a, other]) == 2
        err = capsys.readouterr().err
        assert "spec" in err and "seed" in err

    def test_payload_divergence_exit_1(self, tmp_path, capsys):
        a = run_record(tmp_path, "a")
        tampered_path = tmp_path / "tampered.json"
        record = json.loads(open(a).read())
        record["payload"]["num_nodes"] = 999
        tampered_path.write_text(json.dumps(record))
        assert main(["compare", a, str(tampered_path)]) == 1
        err = capsys.readouterr().err
        assert "payload.num_nodes" in err

    def test_record_with_vector_fingerprint_still_matches(self, tmp_path, capsys):
        # Saved by a version whose backend fingerprint still had
        # ``vector`` and ``numpy`` keys; the payload is what counts, not
        # the fingerprint.  The legacy record was saved on the fast path,
        # and the reference MiniCast loop draws the same distribution but
        # not the same stream, so the current record is made there too.
        legacy = LEGACY_RECORD
        assert {"vector", "numpy"} <= json.loads(legacy.read_text())["backend"].keys()
        with fastpath.forced(True):
            current = run_record(tmp_path, "current")
        assert not {"vector", "numpy"} & json.loads(open(current).read())["backend"].keys()
        assert main(["compare", str(legacy), current]) == 0
        assert "match" in capsys.readouterr().out

    def test_missing_file_exit_1(self, tmp_path, capsys):
        a = run_record(tmp_path, "a")
        assert main(["compare", a, str(tmp_path / "nope.json")]) == 1


@pytest.fixture
def populated_service(tmp_path):
    service_dir = tmp_path / "svc"
    with ServiceClient(
        ServiceConfig(seed=5, cells=2, fsync=False), service_dir, shards=2
    ) as client:
        for window in range(2):
            for device in range(4):
                assert client.submit(
                    device, window, window, 100 * (window + 1) + device
                ).accepted
            client.close_window(window)
    return service_dir


class TestQueryCommand:
    def test_all_windows_table(self, populated_service, capsys):
        assert main(["query", str(populated_service)]) == 0
        out = capsys.readouterr().out
        assert "window" in out
        assert "device" in out

    def test_window_detail(self, populated_service, capsys):
        assert main([
            "query", str(populated_service), "--window", "1", "--json"
        ]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["closed"]
        assert answer["summary"]["total"] == 200 + 201 + 202 + 203
        assert len(answer["contributions"]) == 4

    def test_device_bill(self, populated_service, capsys):
        assert main([
            "query", str(populated_service), "--device", "2", "--json"
        ]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer == {
            "device": 2, "total": 102 + 202, "windows": 2, "through_window": 1
        }

    def test_query_leaves_service_dir_untouched(self, populated_service, capsys):
        stamps = {
            p.name: p.read_bytes()
            for p in sorted(populated_service.iterdir())
        }
        assert main(["query", str(populated_service)]) == 0
        after = {
            p.name: p.read_bytes()
            for p in sorted(populated_service.iterdir())
        }
        assert after == stamps

    def test_missing_dir_exit_2(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "ghost")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_device_and_window_mutually_exclusive(self, populated_service):
        with pytest.raises(SystemExit):
            main([
                "query", str(populated_service),
                "--device", "1", "--window", "0",
            ])
