"""Ablation A2: which S4 optimization buys what.

Three configurations at full network size separate the contributions of
(i) the trimmed chain + low-NTX truncated schedule (latency *and*
energy) from (ii) early radio-off (energy only):

* S3 — the naive baseline;
* S4-no-early-off — trimmed chain, low NTX, radios stay on;
* S4 — everything.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_iterations, register_report
from repro.analysis.reporting import format_table
from repro.scenarios import AblationSpec, Session


@pytest.fixture(scope="module")
def ablation_rows():
    spec = AblationSpec(
        testbed="dcube", iterations=max(5, bench_iterations() // 2), seed=77
    )
    with Session() as session:
        rows = session.run(spec).payload
    register_report(
        "ablation_a2_optimizations",
        format_table(
            ["variant", "latency ms", "radio ms"],
            [[r["variant"], r["latency_ms"], r["radio_ms"]] for r in rows],
            title="Ablation A2 — optimization split, DCube (full network)",
        ),
    )
    return {r["variant"]: r for r in rows}


def test_chain_trim_drives_latency(benchmark, ablation_rows):
    """The schedule/chain optimizations deliver the latency gain alone."""
    benchmark.pedantic(lambda: ablation_rows, rounds=1, iterations=1)
    assert (
        ablation_rows["s4_no_early_off"]["latency_ms"]
        < 0.5 * ablation_rows["s3"]["latency_ms"]
    )
    # Early-off contributes nothing to latency (same schedules).
    assert ablation_rows["s4"]["latency_ms"] == pytest.approx(
        ablation_rows["s4_no_early_off"]["latency_ms"], rel=0.05
    )


def test_early_off_adds_energy_savings(benchmark, ablation_rows):
    """Early radio-off stacks an extra energy factor on top."""
    benchmark.pedantic(lambda: ablation_rows, rounds=1, iterations=1)
    assert (
        ablation_rows["s4"]["radio_ms"]
        < ablation_rows["s4_no_early_off"]["radio_ms"]
    )
    assert (
        ablation_rows["s4_no_early_off"]["radio_ms"]
        < ablation_rows["s3"]["radio_ms"]
    )
