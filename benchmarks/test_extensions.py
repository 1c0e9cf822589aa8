"""Extensions E1 + E2: interference robustness and battery lifetime.

Neither appears in the paper's evaluation (it runs at D-Cube jamming
level 0 and reports radio-on time rather than lifetime), but both are
the natural next questions its testbeds and motivation pose:

* **E1** — how do S3/S4 degrade under D-Cube's controlled jamming
  levels?  (S4's deliberately thin NTX margin stretches first; S3's
  over-provisioning absorbs interference it paid for all along.)
* **E2** — what does the radio-on gap mean for the paper's motivating
  concern, "sustained life"?  (First-node-death lifetime under a
  standard duty cycle.)
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import bench_iterations, register_report
from repro.analysis.reporting import format_table
from repro.scenarios import InterferenceSpec, LifetimeSpec, Session


@pytest.fixture(scope="module")
def interference_rows():
    spec = InterferenceSpec(
        testbed="dcube", levels=(0, 1, 2, 3), iterations=max(10, bench_iterations() // 2)
    )
    with Session() as session:
        rows = session.run(spec).payload
    register_report(
        "extension_e1_interference",
        format_table(
            ["level", "S3 success", "S3 latency ms", "S4 success", "S4 latency ms"],
            [
                [
                    int(r["level"]),
                    f"{r['s3_success']:.2f}",
                    r["s3_latency_ms"],
                    f"{r['s4_success']:.2f}",
                    r["s4_latency_ms"],
                ]
                for r in rows
            ],
            title="Extension E1 — D-Cube jamming levels (paper evaluates at "
            "level 0)",
        ),
    )
    return rows


def test_interference_robustness(benchmark, interference_rows):
    """E1: S4 keeps winning under interference but its margin erodes."""
    benchmark.pedantic(lambda: interference_rows, rounds=1, iterations=1)
    clean = interference_rows[0]
    assert clean["s3_success"] > 0.9 and clean["s4_success"] > 0.8
    for row in interference_rows:
        # Wherever both variants still complete, S4 stays faster.
        if not math.isnan(row["s4_latency_ms"]) and not math.isnan(
            row["s3_latency_ms"]
        ):
            assert row["s4_latency_ms"] < row["s3_latency_ms"]


def test_interference_stretches_s4_margin(benchmark, interference_rows):
    """E1: jamming erodes S4's thin margin where S3's over-provisioning holds.

    The latency columns are conditioned on completion, so under heavy
    jamming S4's mean latency can *shrink* by survivor bias (the rounds
    that would have posted the long tails are the ones that fail).  The
    robust signature of the thin margin is therefore reliability, not
    conditioned latency: at the most hostile level S4's success must not
    exceed S3's, while S3 — which paid for the margin in NTX all along —
    visibly pays in airtime instead.
    """
    benchmark.pedantic(lambda: interference_rows, rounds=1, iterations=1)
    clean, hostile = interference_rows[0], interference_rows[-1]
    if math.isnan(hostile["s4_latency_ms"]) or math.isnan(
        hostile["s3_latency_ms"]
    ):
        pytest.skip("hostile level prevented completion in this sample")
    assert hostile["s3_success"] >= hostile["s4_success"]
    s3_stretch = hostile["s3_latency_ms"] / clean["s3_latency_ms"]
    assert s3_stretch >= 0.99  # jamming never makes the naive flood faster


@pytest.fixture(scope="module")
def lifetime_outcomes():
    outcomes = {}
    with Session() as session:
        for testbed in ("flocklab", "dcube"):
            spec = LifetimeSpec(testbed=testbed, rounds=max(4, bench_iterations() // 3))
            result = session.run(spec)
            outcomes[result.deployment] = result.payload
    register_report(
        "extension_e2_lifetime",
        format_table(
            ["testbed", "S3 lifetime (days)", "S4 lifetime (days)", "gain"],
            [
                [
                    name,
                    out["s3_lifetime_days"],
                    out["s4_lifetime_days"],
                    f"{out['lifetime_gain']:.1f}x",
                ]
                for name, out in outcomes.items()
            ],
            title="Extension E2 — projected first-node-death lifetime "
            "(96 rounds/day, AA-class cell)",
        ),
    )
    return outcomes


def test_lifetime_gain(benchmark, lifetime_outcomes):
    """E2: the radio-on gap translates into a multi-fold lifetime gain."""
    benchmark.pedantic(lambda: lifetime_outcomes, rounds=1, iterations=1)
    for name, out in lifetime_outcomes.items():
        assert out["lifetime_gain"] > 2.0, name
        assert out["s4_lifetime_days"] > 365, (
            f"{name}: S4 should sustain more than a year at this duty cycle"
        )
    # The denser testbed's bigger radio gap yields the bigger lifetime gain.
    assert (
        lifetime_outcomes["DCube"]["lifetime_gain"]
        >= lifetime_outcomes["FlockLab"]["lifetime_gain"] * 0.9
    )
