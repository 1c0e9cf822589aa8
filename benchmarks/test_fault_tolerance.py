"""Ablation A1: §III's fault-tolerance argument, quantified.

"When a degree k polynomial is used where k < n, in the reconstruction
phase even the final polynomial can be formed by combining any k+1 sum
values" — i.e. collector failures within the redundancy margin are
survivable, and beyond it the protocol fails *safely* (no silently wrong
aggregates).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_iterations, register_report
from repro.analysis.reporting import format_table
from repro.scenarios import FaultToleranceSpec, Session


@pytest.fixture(scope="module")
def fault_rows():
    spec = FaultToleranceSpec(
        testbed="flocklab",
        failure_counts=(0, 1, 2, 3, 4),
        iterations=max(6, bench_iterations() // 2),
        seed=66,
    )
    with Session() as session:
        rows = session.run(spec).payload
    register_report(
        "ablation_a1_fault_tolerance",
        format_table(
            ["failed collectors", "redundancy", "success fraction"],
            [
                [
                    int(r["failed_collectors"]),
                    int(r["redundancy"]),
                    f"{r['success_fraction']:.2f}",
                ]
                for r in rows
            ],
            title="Ablation A1 — S4 collector failures mid-sharing, FlockLab",
        ),
    )
    return rows


def test_failures_within_redundancy_survive(benchmark, fault_rows):
    """Collector deaths inside the redundancy margin leave aggregation up.

    Losing strictly fewer than ``redundancy`` collectors preserves slack
    and must survive comfortably; losing exactly ``redundancy`` leaves
    zero margin (every remaining column must be perfect), so the bar
    there is only "usually survives".
    """
    benchmark.pedantic(lambda: fault_rows, rounds=1, iterations=1)
    redundancy = int(fault_rows[0]["redundancy"])
    for row in fault_rows:
        failed = int(row["failed_collectors"])
        if failed < redundancy:
            assert row["success_fraction"] > 0.75, (
                f"{failed} failures should be comfortably survivable "
                f"with redundancy {redundancy}"
            )
        elif failed == redundancy:
            assert row["success_fraction"] > 0.4, (
                f"exactly-at-margin ({failed}) should usually survive"
            )


def test_failures_beyond_redundancy_degrade(benchmark, fault_rows):
    """Past the margin, success collapses (fail-safe, not fail-wrong)."""
    benchmark.pedantic(lambda: fault_rows, rounds=1, iterations=1)
    redundancy = int(fault_rows[0]["redundancy"])
    beyond = [
        r for r in fault_rows if r["failed_collectors"] > redundancy + 1
    ]
    if beyond:
        baseline = fault_rows[0]["success_fraction"]
        assert min(r["success_fraction"] for r in beyond) < baseline
