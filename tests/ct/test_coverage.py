"""Tests for NTX-coverage profiling and collector election."""

from __future__ import annotations

import pytest

from repro.ct.coverage import (
    arm_offsets,
    elect_collectors,
    profile_coverage,
)
from repro.errors import ConfigurationError
from repro.phy.radio import NRF52840_154


@pytest.fixture
def grid_profile(grid9_links):
    return profile_coverage(
        grid9_links,
        NRF52840_154,
        ntx_values=[1, 3, 6],
        depth_hint=3,
        iterations=10,
        seed=4,
    )


class TestArmOffsets:
    def test_root_is_zero(self, line5_links):
        offsets = arm_offsets(line5_links, 0)
        assert offsets[0] == 0

    def test_line_monotone(self, line5_links):
        offsets = arm_offsets(line5_links, 0)
        assert offsets[1] <= offsets[2] <= offsets[3] <= offsets[4]

    def test_all_nodes_present(self, grid9_links):
        offsets = arm_offsets(grid9_links, 4)
        assert set(offsets) == set(grid9_links.node_ids)


class TestProfileCoverage:
    def test_reach_grows_with_ntx(self, grid_profile):
        reaches = [grid_profile.at(ntx).mean_reachable for ntx in sorted(grid_profile.stats)]
        assert reaches[0] <= reaches[1] <= reaches[2] + 1e-9

    def test_full_coverage_at_high_ntx(self, grid_profile):
        assert grid_profile.at(6).full_coverage_fraction > 0.8

    def test_delivery_bounded(self, grid_profile):
        for ntx in (1, 3, 6):
            stats = grid_profile.at(ntx)
            assert 0.0 <= stats.mean_delivery <= 1.0
            assert 0.0 <= stats.full_coverage_fraction <= 1.0

    def test_unprofiled_ntx_rejected(self, grid_profile):
        with pytest.raises(ConfigurationError):
            grid_profile.at(99)

    def test_min_full_coverage(self, grid_profile):
        minimum = grid_profile.min_full_coverage_ntx(target=0.8)
        assert minimum in (3, 6)

    def test_min_full_coverage_none_when_unreachable(self, grid_profile):
        assert (
            grid_profile.min_full_coverage_ntx(target=1.01) is None
            or grid_profile.min_full_coverage_ntx(target=1.01) <= 6
        )

    def test_reachable_sources_helper(self, grid_profile):
        stats = grid_profile.at(6)
        reachable = {
            src for (src, dst), probability in stats.pair_delivery.items()
            if dst == 0 and probability >= 0.5
        }
        assert reachable  # a dense grid reaches plenty

    def test_zero_iterations_rejected(self, grid9_links):
        with pytest.raises(ConfigurationError):
            profile_coverage(
                grid9_links, NRF52840_154, [1], depth_hint=2, iterations=0
            )


class TestElectCollectors:
    def test_elects_requested_count(self, grid_profile):
        stats = grid_profile.at(6)
        nodes = list(range(9))
        collectors = elect_collectors(
            stats, 3, sources=nodes, candidates=nodes, threshold=0.5
        )
        assert len(collectors) == 3
        assert collectors == sorted(collectors)

    def test_collectors_meet_threshold(self, grid_profile):
        stats = grid_profile.at(6)
        nodes = list(range(9))
        collectors = elect_collectors(
            stats, 3, sources=nodes, candidates=nodes, threshold=0.5
        )
        for collector in collectors:
            worst = min(
                stats.pair_delivery.get((src, collector), 1.0)
                for src in nodes
                if src != collector
            )
            assert worst >= 0.5

    def test_impossible_threshold_raises(self, grid_profile):
        stats = grid_profile.at(1)
        nodes = list(range(9))
        with pytest.raises(ConfigurationError):
            elect_collectors(
                stats, 9, sources=nodes, candidates=nodes, threshold=1.01
            )

    def test_bad_count(self, grid_profile):
        with pytest.raises(ConfigurationError):
            elect_collectors(
                grid_profile.at(6), 0, sources=[0], candidates=[1]
            )

    def test_clustered_around_best(self, grid_profile):
        # All collectors should be mutually well-connected to the centre.
        stats = grid_profile.at(6)
        nodes = list(range(9))
        collectors = elect_collectors(
            stats, 4, sources=nodes, candidates=nodes, threshold=0.5
        )
        assert len(set(collectors)) == 4
