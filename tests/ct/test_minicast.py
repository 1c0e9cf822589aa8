"""Tests for MiniCast chain rounds."""

from __future__ import annotations

import random

import pytest

from repro.ct.minicast import MiniCastRound, RadioOffPolicy, Requirement
from repro.ct.packet import ChainLayout
from repro.ct.slots import RoundSchedule
from repro.errors import ConfigurationError
from repro.phy.radio import NRF52840_154


def make_round(links, chain_length=None, ntx=4, policy=RadioOffPolicy.ALWAYS_ON,
               num_slots=None, tx_probability=0.5):
    nodes = links.node_ids
    if chain_length is None:
        chain_length = len(nodes)
    schedule = RoundSchedule.plan(
        chain_length=chain_length,
        psdu_bytes=15,
        ntx=ntx,
        depth_hint=len(nodes) // 2,
        timings=NRF52840_154,
    )
    if num_slots is not None:
        schedule = RoundSchedule(
            chain_length=chain_length,
            psdu_bytes=15,
            ntx=ntx,
            num_slots=num_slots,
            timings=NRF52840_154,
        )
    return MiniCastRound(links, schedule, policy=policy,
                         tx_probability=tx_probability)


def one_slot_each(links):
    """Initial knowledge: node i owns sub-slot i (all-to-all probe)."""
    nodes = links.node_ids
    layout = ChainLayout.reconstruction(nodes, num_nodes=len(nodes))
    return {node: layout.source_mask(node) for node in nodes}, layout


class TestRequirement:
    def test_all_of(self):
        req = Requirement.all_of(0b1011)
        assert not req.satisfied_by(0b0011)
        assert req.satisfied_by(0b1011)
        assert req.satisfied_by(0b1111)

    def test_count_of(self):
        req = Requirement.count_of(0b1111, 2)
        assert not req.satisfied_by(0b0001)
        assert req.satisfied_by(0b0101)

    def test_count_exceeding_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            Requirement.count_of(0b11, 3)

    def test_nothing_always_satisfied(self):
        assert Requirement(mask=0, min_count=0).satisfied_by(0)


class TestDissemination:
    def test_all_to_all_on_grid(self, grid9_links):
        round_ = make_round(grid9_links, ntx=6)
        initial, layout = one_slot_each(grid9_links)
        result = round_.run(random.Random(1), initial_knowledge=initial)
        full = layout.full_mask()
        assert all(result.knowledge[n] == full for n in grid9_links.node_ids)

    def test_low_ntx_partial_coverage(self, line5_links):
        # NTX=1 on a line cannot reach everyone with everything.
        round_ = make_round(line5_links, ntx=1)
        initial, layout = one_slot_each(line5_links)
        full = layout.full_mask()
        deliveries = []
        for seed in range(10):
            result = round_.run(random.Random(seed), initial_knowledge=initial)
            hits = sum(1 for view in result.knowledge.values() if view & full == full)
            deliveries.append(hits / len(result.knowledge))
        assert sum(deliveries) / len(deliveries) < 0.9

    def test_coverage_grows_with_ntx(self, line5_links):
        initial, layout = one_slot_each(line5_links)
        full = layout.full_mask()

        def mean_bits(ntx):
            round_ = make_round(line5_links, ntx=ntx)
            total = 0
            for seed in range(10):
                result = round_.run(random.Random(seed), initial_knowledge=initial)
                total += sum(
                    (result.knowledge[n] & full).bit_count()
                    for n in line5_links.node_ids
                )
            return total

        assert mean_bits(1) < mean_bits(3) <= mean_bits(6)

    def test_initiator_must_have_data(self, line5_links):
        round_ = make_round(line5_links)
        with pytest.raises(ConfigurationError):
            round_.run(random.Random(0), initial_knowledge={})

    def test_explicit_initiators(self, line5_links):
        initial, _ = one_slot_each(line5_links)
        round_ = make_round(line5_links, ntx=4)
        result = round_.run(
            random.Random(1), initial_knowledge=initial, initiators=[4]
        )
        assert result.slots_run > 0

    def test_unknown_initiator_rejected(self, line5_links):
        initial, _ = one_slot_each(line5_links)
        round_ = make_round(line5_links)
        with pytest.raises(ConfigurationError):
            round_.run(random.Random(1), initial_knowledge=initial, initiators=[99])

    def test_oversized_knowledge_rejected(self, line5_links):
        round_ = make_round(line5_links, chain_length=2)
        with pytest.raises(ConfigurationError):
            round_.run(random.Random(0), initial_knowledge={0: 0b100})

    def test_arm_schedule_keeps_round_alive(self, line5_links):
        # Only node 4 has data and is scheduled to join late; the round
        # must idle (not break) until it arms.
        round_ = make_round(line5_links, ntx=2)
        layout = ChainLayout.reconstruction(line5_links.node_ids, num_nodes=5)
        initial = {4: layout.source_mask(4)}
        result = round_.run(
            random.Random(3),
            initial_knowledge=initial,
            initiators=[0],  # initiator has nothing: slot 0 is silent
            arm_schedule={4: 3},
        )
        assert result.slots_run >= 4
        assert result.knowledge[3] & layout.source_mask(4)


class TestCompletion:
    def test_completion_recorded(self, grid9_links):
        initial, layout = one_slot_each(grid9_links)
        requirements = {
            n: Requirement.all_of(layout.full_mask())
            for n in grid9_links.node_ids
        }
        round_ = make_round(grid9_links, ntx=6)
        result = round_.run(
            random.Random(2), initial_knowledge=initial, requirements=requirements
        )
        # This configuration has a small (~4%) per-seed chance that a
        # marginal node never completes, so assert the *recording*
        # semantics on the nodes that did complete rather than pinning
        # full completion to one lucky seed.
        completed = [
            node
            for node in grid9_links.node_ids
            if result.completion_slot[node] is not None
        ]
        assert len(completed) >= len(grid9_links.node_ids) - 1
        for node in completed:
            slot = result.completion_slot[node]
            assert result.completion_us(node) == (slot + 1) * result.schedule.chain_slot_us

    def test_satisfied_at_start_is_minus_one(self, grid9_links):
        initial, layout = one_slot_each(grid9_links)
        requirements = {0: Requirement.all_of(layout.source_mask(0))}
        round_ = make_round(grid9_links, ntx=2)
        result = round_.run(
            random.Random(2), initial_knowledge=initial, requirements=requirements
        )
        assert result.completion_slot[0] == -1
        assert result.completion_us(0) == 0

    def test_unsatisfiable_requirement_none(self, line5_links):
        initial, layout = one_slot_each(line5_links)
        # Require a sub-slot that nobody sources.
        requirements = {0: Requirement.count_of(layout.full_mask(), 5)}
        del initial[4]  # node 4's sub-slot never exists
        initial[4] = 0
        round_ = make_round(line5_links, ntx=2)
        result = round_.run(
            random.Random(2), initial_knowledge=initial, requirements=requirements
        )
        assert result.completion_slot[0] is None
        assert result.completion_us(0) is None


class TestEnergyAccounting:
    def test_always_on_charges_full_round(self, grid9_links):
        initial, _ = one_slot_each(grid9_links)
        round_ = make_round(grid9_links, ntx=3, policy=RadioOffPolicy.ALWAYS_ON)
        result = round_.run(random.Random(4), initial_knowledge=initial)
        for node in grid9_links.node_ids:
            assert (
                result.tx_us[node] + result.rx_us[node]
                == result.schedule.round_duration_us
            )

    def test_early_off_saves_energy(self, grid9_links):
        initial, layout = one_slot_each(grid9_links)
        requirements = {
            n: Requirement(mask=0, min_count=0) for n in grid9_links.node_ids
        }
        on = make_round(grid9_links, ntx=2, policy=RadioOffPolicy.ALWAYS_ON)
        off = make_round(grid9_links, ntx=2, policy=RadioOffPolicy.EARLY_OFF)
        result_on = on.run(random.Random(5), initial_knowledge=initial,
                           requirements=requirements)
        result_off = off.run(random.Random(5), initial_knowledge=initial,
                             requirements=requirements)
        total_on = sum(result_on.radio_on_us(n) for n in grid9_links.node_ids)
        total_off = sum(result_off.radio_on_us(n) for n in grid9_links.node_ids)
        assert total_off < total_on

    def test_early_off_recorded(self, grid9_links):
        initial, _ = one_slot_each(grid9_links)
        round_ = make_round(grid9_links, ntx=1, policy=RadioOffPolicy.EARLY_OFF)
        result = round_.run(random.Random(6), initial_knowledge=initial)
        off_slots = [s for s in result.radio_off_slot.values() if s is not None]
        assert off_slots  # someone powered down early

    def test_tx_time_proportional_to_knowledge(self, line5_links):
        initial, _ = one_slot_each(line5_links)
        round_ = make_round(line5_links, ntx=1)
        result = round_.run(random.Random(7), initial_knowledge=initial)
        packet_us = result.schedule.packet_slot_us
        for node in line5_links.node_ids:
            assert result.tx_us[node] % packet_us == 0


class TestFailures:
    def test_failed_node_stops_participating(self, grid9_links):
        initial, layout = one_slot_each(grid9_links)
        round_ = make_round(grid9_links, ntx=4)
        result = round_.run(
            random.Random(8),
            initial_knowledge=initial,
            failures={4: 0},
        )
        assert result.failures == {4: 0}
        # Dead at slot 0: transmitted nothing, received nothing.
        assert result.tx_us[4] == 0
        assert result.knowledge[4] == initial[4]

    def test_mid_round_failure_partial_energy(self, grid9_links):
        initial, _ = one_slot_each(grid9_links)
        round_ = make_round(grid9_links, ntx=4)
        result = round_.run(
            random.Random(9), initial_knowledge=initial, failures={4: 2}
        )
        on_time = result.tx_us[4] + result.rx_us[4]
        assert 0 < on_time <= 2 * result.schedule.chain_slot_us

    def test_failure_after_round_harmless(self, grid9_links):
        initial, _ = one_slot_each(grid9_links)
        round_ = make_round(grid9_links, ntx=2)
        result = round_.run(
            random.Random(10), initial_knowledge=initial, failures={4: 10_000}
        )
        assert result.failures == {}


class TestDeterminism:
    def test_same_seed_same_outcome(self, grid9_links):
        initial, _ = one_slot_each(grid9_links)
        round_ = make_round(grid9_links, ntx=3)
        a = round_.run(random.Random(11), initial_knowledge=initial)
        b = round_.run(random.Random(11), initial_knowledge=initial)
        assert a.knowledge == b.knowledge
        assert a.tx_us == b.tx_us

    def test_different_seed_different_dynamics(self, grid9_links):
        initial, _ = one_slot_each(grid9_links)
        round_ = make_round(grid9_links, ntx=3)
        a = round_.run(random.Random(11), initial_knowledge=initial)
        b = round_.run(random.Random(12), initial_knowledge=initial)
        assert a.tx_us != b.tx_us  # dynamics differ even if outcome converges

    def test_bad_tx_probability(self, grid9_links):
        schedule = RoundSchedule.plan(9, 15, 2, 2, NRF52840_154)
        with pytest.raises(ConfigurationError):
            MiniCastRound(grid9_links, schedule, tx_probability=0.0)
