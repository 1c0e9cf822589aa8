"""Self-tests of the benchmark: run with ``python -m pytest layerbench``.

A tiny run of every workload must print every declared metric with its
unit, and the correctness gate must fail when one of its oracles is
perturbed.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, REQUIRED  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "layerbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1.5",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    required = REQUIRED[workload] if trace == "1" else list(result["metrics"])
    assert all(result["metrics"][name]["value"] > 0 for name in required)


def test_per_layer_metrics_match_benchmark_json():
    assert list(PER_LAYER) == [metric["name"] for metric in DECLARED["per_layer"]]
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert set(REQUIRED) == set(workloads.WORKLOADS)
    assert all(name in PER_LAYER for names in REQUIRED.values() for name in names)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "rounds_real", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the gate fails when an oracle is perturbed ------------------------------


def _tiny(cls, tmp_path, seconds: float = 0.6):
    workload = cls(workloads.Context(seed=3, tiny=True))
    workload.setup(tmp_path)
    try:
        workload.timed(seconds)
        workload.post()
    finally:
        workload.stop()
    return workload.out


def test_unperturbed_oracles_pass(tmp_path):
    out = _tiny(workloads.MeteringFold, tmp_path)
    assert out.attempted > 0 and out.failed == 0, out.problems


def test_rounds_gate_fails_on_a_perturbed_sum(tmp_path, monkeypatch):
    real = workloads.RoundsReal.true_sum
    monkeypatch.setattr(workloads.RoundsReal, "true_sum",
                        lambda self, secrets, sources: real(self, secrets, sources) + 1)
    out = _tiny(workloads.RoundsReal, tmp_path)
    assert out.failed > 0 and "wrong sum" in out.problems[0]


def test_rounds_gate_fails_on_a_perturbed_replay(tmp_path, monkeypatch):
    real = workloads.RoundsReal.replay
    monkeypatch.setattr(workloads.RoundsReal, "replay",
                        lambda self, *args: (real(self, *args)[0] + 1, *real(self, *args)[1:]))
    out = _tiny(workloads.RoundsReal, tmp_path)
    assert out.failed > 0 and any("stub replay" in p for p in out.problems)


@pytest.mark.parametrize("cls", [workloads.MeteringFold, workloads.MeteringIngest])
def test_metering_gate_fails_on_a_perturbed_window_total(cls, tmp_path, monkeypatch):
    from repro.service import loadgen

    real = loadgen.expected_window_total
    monkeypatch.setattr(loadgen, "expected_window_total",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1)
    out = _tiny(cls, tmp_path)
    assert out.failed > 0 and all("window" in p for p in out.problems)


def test_metering_gate_fails_on_a_perturbed_bill(tmp_path, monkeypatch):
    from repro.service import loadgen

    real = loadgen.expected_device_total
    monkeypatch.setattr(loadgen, "expected_device_total",
                        lambda device, *args: real(device, *args) + (device == 7))
    out = _tiny(workloads.MeteringFold, tmp_path)
    assert out.failed > 0 and any("7" in p for p in out.problems)


def test_traced_gate_fails_when_wrappers_catch_nothing(tmp_path):
    import run
    from layers import protocol_points

    # Without the two ``run`` wrappers (engine and flooding) the flooding
    # layer reads 0 and both self times are left uncovered in every round.
    points = [point for point in protocol_points() if point.attr != "run"]
    workload = workloads.RoundsReal(workloads.Context(seed=3, tiny=True))
    workload.setup(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, points):
        workload.timed(0.6, tracer)
        tracer.alternate(0)
        workload.post(tracer)
    assert workload.out.failed == 0, workload.out.problems
    run.per_layer(workload, tracer, tmp_path / "trace.json")
    problems = workload.out.problems
    assert any("ct.minicast.busy_ms reads 0" in p for p in problems), problems
    assert any("of a round" in p for p in problems), problems


# -- the tracer ----------------------------------------------------------------


class _Layer:
    @staticmethod
    def inner(x):
        return x + 1

    @classmethod
    def outer(cls, x):
        return cls.inner(x) * 2


def test_spans_nest_and_wrappers_are_removed():
    tracer = tracing.Tracer()
    points = [tracing.Point(_Layer, "outer", "outer"), tracing.Point(_Layer, "inner", "inner")]
    with tracing.installed(tracer, points):
        with tracer.unit("op"):
            assert _Layer.outer(1) == 4
        tracer.alternate(1)
        with tracer.unit("op"):
            assert _Layer.outer(1) == 4
    assert isinstance(_Layer.__dict__["outer"], classmethod)
    assert _Layer.outer.__func__.__name__ == "outer"
    spans = {span.name: span for span in tracer.spans}
    assert set(spans) == {"bench.op", "outer", "inner"}
    assert spans["inner"].parent == spans["outer"].span_id
    assert spans["outer"].self_ns == spans["outer"].dur_ns - spans["inner"].dur_ns
    assert {span.request for span in spans.values()} == {spans["bench.op"].span_id}
    stats = tracing.LayerStats(tracer.spans)
    rows, covered = stats.table("op")
    assert stats.count("op") == 1 and 0 < covered <= 1
    assert {row[0] for row in rows} == {"outer", "inner"}


def test_end_to_end_divides_out_the_host_speed():
    import run
    from reference import REFERENCE_S

    class Run:
        def __init__(self, slowdown: float):
            self.out = workloads.Outcome()
            self.out.latency = [0.010 * slowdown] * 20
            # (median latency, rate, reference) of each block
            self.out.blocks = [(0.010 * slowdown, 100 / slowdown, REFERENCE_S * slowdown)] * 5

    quiet, _ = run.end_to_end(Run(1.0), 0.5, [(1.0, REFERENCE_S)], 50.0)
    busy, _ = run.end_to_end(Run(2.0), 1.0, [(2.0, 2 * REFERENCE_S)], 50.0)
    assert quiet == pytest.approx(busy)
    assert quiet["latency_ms"] == pytest.approx(10.0)
    assert quiet["throughput_per_s"] == pytest.approx(100.0)
    assert quiet["setup_s"] == pytest.approx(1.5)
