"""Tests for the precomputed link table."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.phy.channel import ChannelModel, ChannelParameters
from repro.phy.link import LinkTable


@pytest.fixture
def channel():
    return ChannelModel(
        ChannelParameters(shadowing_sigma_db=0.0, path_loss_exponent=4.0,
                          reference_loss_db=52.0)
    )


@pytest.fixture
def positions():
    # Three nodes on a line: 0 --8m-- 1 --8m-- 2 (0 to 2 is 16 m).
    return {0: (0.0, 0.0), 1: (8.0, 0.0), 2: (16.0, 0.0)}


class TestLinkTable:
    def test_prr_symmetric_without_shadowing(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        assert table.prr(0, 1) == pytest.approx(table.prr(1, 0))

    def test_nearer_is_better(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        assert table.prr(0, 1) > table.prr(0, 2)

    def test_matches_channel_model(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        assert table.prr(0, 1) == pytest.approx(channel.prr(channel.rssi_dbm(8.0, 0, 1), 29))
        assert table.rssi(0, 1) == pytest.approx(channel.rssi_dbm(8.0, 0, 1))

    def test_unknown_link_rejected(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        with pytest.raises(TopologyError):
            table.prr(0, 9)
        with pytest.raises(TopologyError):
            table.rssi(9, 0)

    def test_neighbors_respect_threshold(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29, good_link_threshold=0.75)
        assert 1 in table.neighbors(0)
        # Whether 2 is a neighbour depends on the 16 m PRR; verify consistency.
        expected = table.prr(0, 2) >= 0.75
        assert (2 in table.neighbors(0)) == expected

    def test_adjacency_covers_all_nodes(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        adjacency = table.adjacency()
        assert set(adjacency) == {0, 1, 2}

    def test_prr_row(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        row = table.prr_row(1)
        assert set(row) == {0, 2}
        assert row[0] == table.prr(1, 0)

    def test_density(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        degrees = [len(table.neighbors(n)) for n in (0, 1, 2)]
        assert table.density() == pytest.approx(sum(degrees) / 3)

    def test_link_record(self, positions, channel):
        table = LinkTable(positions, channel, frame_bytes=29)
        link = table.link(0, 1)
        assert link.src == 0 and link.dst == 1
        assert link.prr == table.prr(0, 1)

    def test_single_node_rejected(self, channel):
        with pytest.raises(TopologyError):
            LinkTable({0: (0.0, 0.0)}, channel, frame_bytes=29)

    def test_bad_threshold_rejected(self, positions, channel):
        with pytest.raises(TopologyError):
            LinkTable(positions, channel, frame_bytes=29, good_link_threshold=0.0)

    def test_frame_size_matters(self, positions, channel):
        small = LinkTable(positions, channel, frame_bytes=21)
        large = LinkTable(positions, channel, frame_bytes=120)
        assert small.prr(0, 2) >= large.prr(0, 2)

    def test_repr(self, positions, channel):
        assert "3 nodes" in repr(LinkTable(positions, channel, frame_bytes=29))
