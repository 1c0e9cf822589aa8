"""Tests for TDMA round arithmetic."""

from __future__ import annotations

import pytest

from repro.ct.slots import RoundSchedule, round_slots
from repro.errors import ConfigurationError
from repro.phy.radio import NRF52840_154


class TestRoundSlots:
    def test_formula(self):
        # depth + 2*NTX + slack
        assert round_slots(ntx=6, depth_hint=4, slack=3) == 19

    def test_zero_depth(self):
        assert round_slots(ntx=1, depth_hint=0, slack=0) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            round_slots(0, 4)
        with pytest.raises(ConfigurationError):
            round_slots(3, -1)
        with pytest.raises(ConfigurationError):
            round_slots(3, 1, slack=-1)


class TestRoundSchedule:
    def test_plan_uses_formula(self):
        schedule = RoundSchedule.plan(
            chain_length=10,
            psdu_bytes=23,
            ntx=6,
            depth_hint=4,
            timings=NRF52840_154,
        )
        assert schedule.num_slots == round_slots(6, 4)

    def test_durations(self):
        schedule = RoundSchedule.plan(
            chain_length=10,
            psdu_bytes=23,
            ntx=2,
            depth_hint=1,
            timings=NRF52840_154,
        )
        assert schedule.packet_slot_us == NRF52840_154.packet_slot_us(23)
        assert schedule.chain_slot_us == NRF52840_154.chain_slot_us(23, 10)
        assert (
            schedule.round_duration_us
            == schedule.num_slots * schedule.chain_slot_us
        )

    def test_frame_bytes(self):
        schedule = RoundSchedule.plan(5, 23, 2, 1, NRF52840_154)
        assert schedule.frame_bytes == 29

    def test_chain_length_dominates_duration(self):
        small = RoundSchedule.plan(10, 23, 6, 4, NRF52840_154)
        large = RoundSchedule.plan(1000, 23, 6, 4, NRF52840_154)
        assert large.chain_slot_us > 90 * small.chain_slot_us

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RoundSchedule(chain_length=0, psdu_bytes=23, ntx=1, num_slots=5,
                          timings=NRF52840_154)
        with pytest.raises(ConfigurationError):
            RoundSchedule(chain_length=5, psdu_bytes=23, ntx=1, num_slots=0,
                          timings=NRF52840_154)

    def test_repr(self):
        schedule = RoundSchedule.plan(5, 23, 2, 1, NRF52840_154)
        assert "chain=5" in repr(schedule)
