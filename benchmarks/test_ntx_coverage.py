"""Claims C3 + C5: NTX sufficiency and the coverage non-linearity.

C3 — the paper found NTX = 6 (FlockLab) and 5 (D-Cube) "enough for
sharing the data within the necessary number of neighbors"; our
calibrated channel needs 7 (documented deviation), and the benches below
verify the elected collectors are reliably reachable at the operating
NTX while *full* coverage demands far more.

C5 — §III: "with a short increase in NTX, a large amount of data becomes
available in a node, while it takes a comparatively higher time (NTX) to
have the full network coverage."
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_iterations, register_report
from repro.analysis.reporting import format_table
from repro.core.bootstrap import network_depth
from repro.ct.coverage import profile_coverage
from repro.ct.packet import sharing_psdu_bytes
from repro.phy.channel import ChannelModel
from repro.phy.link import LinkTable
from repro.phy.radio import NRF52840_154
from repro.topology.testbeds import dcube, flocklab

NTX_VALUES = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12)


@pytest.fixture(scope="module", params=["flocklab", "dcube"])
def coverage_case(request):
    spec = flocklab() if request.param == "flocklab" else dcube()
    channel = ChannelModel(spec.channel)
    links = LinkTable(
        spec.topology.positions, channel, 6 + sharing_psdu_bytes()
    )
    profile = profile_coverage(
        links,
        NRF52840_154,
        ntx_values=NTX_VALUES,
        depth_hint=network_depth(links),
        iterations=max(10, bench_iterations()),
        seed=33,
    )
    rows = []
    for ntx in sorted(profile.stats):
        stats = profile.stats[ntx]
        rows.append(
            [
                ntx,
                f"{stats.mean_reachable:.1f}",
                f"{stats.mean_delivery:.3f}",
                f"{stats.full_coverage_fraction:.2f}",
            ]
        )
    register_report(
        f"claim_c3_c5_ntx_coverage_{spec.name.lower()}",
        format_table(
            ["NTX", "mean reachable", "mean delivery", "full coverage"],
            rows,
            title=f"Claims C3+C5 — NTX coverage profile, {spec.name}",
        ),
    )
    return spec, profile


def test_operating_ntx_sufficient(benchmark, coverage_case):
    """C3: the S4 operating NTX reaches nearly everyone on average."""
    spec, profile = coverage_case
    operating_ntx = spec.extras["s4_sharing_ntx"]

    benchmark.pedantic(
        lambda: profile.at(operating_ntx).mean_delivery, rounds=1, iterations=1
    )

    stats = profile.at(operating_ntx)
    n = len(spec.topology)
    # "Enough to reach the necessary number of neighbours": mean delivery
    # is essentially complete well below the full-coverage NTX.
    assert stats.mean_delivery > 0.99
    assert stats.mean_reachable > 0.97 * (n - 1)


def test_full_coverage_needs_much_more(benchmark, coverage_case):
    """C3 (flip side): full n²-chain coverage costs far more NTX.

    The probe chain (one sub-slot per node) saturates early; the claim
    that matters for S3's provisioning is all-to-all delivery of the
    *n²-packet sharing chain* — more bits in flight, more tail risk —
    which we profile on the real chain here.
    """
    import random

    from repro.ct.coverage import arm_offsets
    from repro.ct.minicast import MiniCastRound
    from repro.ct.packet import ChainLayout
    from repro.ct.slots import RoundSchedule
    from repro.sim.seeds import stable_seed

    spec, _ = coverage_case
    operating_ntx = spec.extras["s4_sharing_ntx"]
    channel = ChannelModel(spec.channel)
    nodes = tuple(spec.topology.node_ids)
    layout = ChainLayout.sharing(nodes, nodes)
    links = LinkTable(
        spec.topology.positions, channel, 6 + layout.psdu_bytes
    )
    wave = arm_offsets(links, nodes[0])
    depth = network_depth(links)
    initial = {node: layout.source_mask(node) for node in nodes}
    full = layout.full_mask()
    iterations = max(8, bench_iterations() // 2)

    def full_fraction(ntx: int) -> float:
        schedule = RoundSchedule.plan(
            chain_length=len(layout),
            psdu_bytes=layout.psdu_bytes,
            ntx=ntx,
            depth_hint=depth,
            timings=NRF52840_154,
        )
        round_ = MiniCastRound(links, schedule)
        hits = 0
        for iteration in range(iterations):
            rng = random.Random(stable_seed("n2cov", spec.name, ntx, iteration))
            result = round_.run(
                rng,
                initial_knowledge=initial,
                initiators=[nodes[0]],
                arm_schedule=wave,
            )
            if all(result.knowledge[n] & full == full for n in nodes):
                hits += 1
        return hits / iterations

    at_operating = benchmark.pedantic(
        lambda: full_fraction(operating_ntx), rounds=1, iterations=1
    )
    at_provisioned = full_fraction(spec.full_coverage_ntx)

    # At S4's operating NTX the n²-chain does NOT reliably reach everyone —
    # that is precisely why the naive variant must over-provision.
    assert at_operating < 0.95
    # At the naive provisioning it does.
    assert at_provisioned >= 0.9


def test_coverage_nonlinearity(benchmark, coverage_case):
    """C5: concave reach curve — early NTX buys much more than late NTX."""
    spec, profile = coverage_case
    curve = {ntx: stats.mean_reachable for ntx, stats in profile.stats.items()}
    benchmark.pedantic(lambda: curve, rounds=1, iterations=1)

    n = len(spec.topology)
    # First three NTX reach > 85% of the network...
    assert curve[3] > 0.85 * (n - 1)
    # ...while the remaining tail (to truly full coverage) takes 3-4x
    # longer: the marginal gain of the first NTX step dwarfs the last's.
    first_gain = curve[2] - curve[1]
    last_gain = curve[12] - curve[10]
    assert first_gain > 5 * max(last_gain, 0.01)
    # Monotone non-decreasing overall (within sampling noise).
    values = [curve[ntx] for ntx in sorted(curve)]
    for earlier, later in zip(values, values[1:]):
        assert later >= earlier - 0.5
