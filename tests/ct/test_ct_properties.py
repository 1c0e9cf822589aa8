"""Property-based tests for CT-round invariants.

These pin the conservation laws every MiniCast round must obey no matter
the topology, NTX, policy or seed:

* knowledge only ever grows, and only with bits someone actually sourced;
* no node transmits more than its NTX budget;
* no node's radio is on longer than the scheduled round;
* completion implies the requirement really is satisfied.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_geometric
from repro.ct.minicast import MiniCastRound, RadioOffPolicy, Requirement
from repro.ct.packet import ChainLayout
from repro.ct.slots import RoundSchedule
from repro.phy.channel import ChannelModel, ChannelParameters
from repro.phy.link import LinkTable
from repro.phy.radio import NRF52840_154


@st.composite
def ct_scenario(draw):
    """A random small network + round configuration + seed."""
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    area = draw(st.sampled_from([15.0, 25.0, 40.0]))
    topo_seed = draw(st.integers(min_value=0, max_value=50))
    topology = random_geometric(
        num_nodes, area, area, seed=topo_seed, min_separation_m=2.0
    )
    channel = ChannelModel(
        ChannelParameters(
            path_loss_exponent=4.0,
            reference_loss_db=52.0,
            shadowing_sigma_db=draw(st.sampled_from([0.0, 2.0])),
            shadowing_seed=draw(st.integers(min_value=0, max_value=5)),
        )
    )
    links = LinkTable(topology.positions, channel, frame_bytes=21)
    ntx = draw(st.integers(min_value=1, max_value=5))
    policy = draw(st.sampled_from(list(RadioOffPolicy)))
    run_seed = draw(st.integers(min_value=0, max_value=2**31))
    return links, ntx, policy, run_seed


@settings(max_examples=30, deadline=None)
@given(scenario=ct_scenario())
def test_round_invariants(scenario):
    links, ntx, policy, run_seed = scenario
    nodes = links.node_ids
    layout = ChainLayout.reconstruction(nodes, num_nodes=max(nodes) + 1)
    schedule = RoundSchedule.plan(
        chain_length=len(layout),
        psdu_bytes=layout.psdu_bytes,
        ntx=ntx,
        depth_hint=len(nodes),
        timings=NRF52840_154,
    )
    round_ = MiniCastRound(links, schedule, policy=policy)
    initial = {node: layout.source_mask(node) for node in nodes}
    requirements = {
        node: Requirement.count_of(layout.full_mask(), min(2, len(nodes)))
        for node in nodes
    }
    result = round_.run(
        random.Random(run_seed),
        initial_knowledge=initial,
        requirements=requirements,
    )

    sourced_union = 0
    for node in nodes:
        sourced_union |= initial[node]

    for node in nodes:
        view = result.knowledge[node]
        # Knowledge grows monotonically from the initial mask...
        assert view & initial[node] == initial[node]
        # ...and never contains bits nobody sourced.
        assert view & ~sourced_union == 0

        # TX budget: at most NTX chain transmissions' worth of packets.
        max_tx_us = ntx * len(layout) * schedule.packet_slot_us
        assert 0 <= result.tx_us[node] <= max_tx_us
        # TX time is a whole number of packets.
        assert result.tx_us[node] % schedule.packet_slot_us == 0

        # Radio-on never exceeds the scheduled round.
        assert (
            0
            <= result.tx_us[node] + result.rx_us[node]
            <= schedule.round_duration_us
        )

        # Completion bookkeeping is truthful.
        slot = result.completion_slot[node]
        if slot is not None and slot >= 0:
            assert requirements[node].satisfied_by(view)
            assert 0 <= slot < schedule.num_slots

    # The slot counter stays within schedule.
    assert 0 <= result.slots_run <= schedule.num_slots

    # ALWAYS_ON: every node pays the full schedule.
    if policy is RadioOffPolicy.ALWAYS_ON:
        for node in nodes:
            assert (
                result.tx_us[node] + result.rx_us[node]
                == schedule.round_duration_us
            )


@settings(max_examples=20, deadline=None)
@given(scenario=ct_scenario(), fail_fraction=st.floats(min_value=0.0, max_value=0.5))
def test_failure_invariants(scenario, fail_fraction):
    links, ntx, policy, run_seed = scenario
    nodes = links.node_ids
    layout = ChainLayout.reconstruction(nodes, num_nodes=max(nodes) + 1)
    schedule = RoundSchedule.plan(
        chain_length=len(layout),
        psdu_bytes=layout.psdu_bytes,
        ntx=ntx,
        depth_hint=len(nodes),
        timings=NRF52840_154,
    )
    round_ = MiniCastRound(links, schedule, policy=policy)
    initial = {node: layout.source_mask(node) for node in nodes}
    rng = random.Random(run_seed)
    victims = [n for n in nodes[1:] if rng.random() < fail_fraction]
    failures = {victim: rng.randrange(schedule.num_slots) for victim in victims}
    result = round_.run(
        random.Random(run_seed), initial_knowledge=initial, failures=failures
    )

    for victim, slot in result.failures.items():
        # A failed node's radio stops at its failure slot.
        on_time = result.tx_us[victim] + result.rx_us[victim]
        assert on_time <= slot * schedule.chain_slot_us
    # Non-victims still obey the global invariants.
    for node in nodes:
        if node not in result.failures:
            assert (
                result.tx_us[node] + result.rx_us[node]
                <= schedule.round_duration_us
            )
