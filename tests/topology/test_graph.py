"""Tests for the topology container and hop-graph metrics."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology.graph import (
    Topology,
    bfs_hops,
    connected_subset,
    diameter,
    eccentricities,
    is_connected,
)



def subset_adjacency(adjacency, keep):
    """Induced sub-adjacency on ``keep``: the graph a carved subset spans."""
    keep_set = set(keep)
    unknown = keep_set - set(adjacency)
    if unknown:
        raise TopologyError(f"unknown nodes in subset: {sorted(unknown)}")
    return {
        node: [n for n in neighbors if n in keep_set]
        for node, neighbors in adjacency.items()
        if node in keep_set
    }


LINE = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
STAR = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
DISCONNECTED = {0: [1], 1: [0], 2: []}


class TestTopology:
    def test_basic_accessors(self):
        topo = Topology({0: (0, 0), 1: (3, 4)}, name="t")
        assert topo.name == "t"
        assert topo.node_ids == (0, 1)
        assert topo.distance(0, 1) == pytest.approx(5.0)
        assert len(topo) == 2
        assert 1 in topo and 9 not in topo

    def test_positions_copied(self):
        topo = Topology({0: (0, 0)})
        positions = topo.positions
        positions[0] = (9, 9)
        assert topo.position(0) == (0.0, 0.0)

    def test_unknown_node(self):
        with pytest.raises(TopologyError):
            Topology({0: (0, 0)}).position(5)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Topology({})

    def test_negative_id_rejected(self):
        with pytest.raises(TopologyError):
            Topology({-1: (0, 0)})

    def test_bounding_box(self):
        topo = Topology({0: (1, 2), 1: (4, -1)})
        assert topo.bounding_box() == (1.0, -1.0, 4.0, 2.0)

    def test_node_ids_sorted(self):
        topo = Topology({5: (0, 0), 1: (1, 1), 3: (2, 2)})
        assert topo.node_ids == (1, 3, 5)


class TestBfs:
    def test_line_distances(self):
        hops = bfs_hops(LINE, 0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_star_distances(self):
        assert bfs_hops(STAR, 1) == {1: 0, 0: 1, 2: 2, 3: 2}

    def test_unreachable_absent(self):
        assert 2 not in bfs_hops(DISCONNECTED, 0)

    def test_unknown_source(self):
        with pytest.raises(TopologyError):
            bfs_hops(LINE, 99)


class TestDiameterEccentricity:
    def test_line_diameter(self):
        assert diameter(LINE) == 3

    def test_star_diameter(self):
        assert diameter(STAR) == 2

    def test_eccentricities(self):
        ecc = eccentricities(LINE)
        assert ecc == {0: 3, 1: 2, 2: 2, 3: 3}

    def test_disconnected_raises(self):
        with pytest.raises(TopologyError):
            diameter(DISCONNECTED)

    def test_is_connected(self):
        assert is_connected(LINE)
        assert not is_connected(DISCONNECTED)
        assert is_connected({})


class TestConnectedSubset:
    def test_grows_bfs(self):
        subset = connected_subset(LINE, 2, root=0)
        assert subset == [0, 1]

    def test_full_graph(self):
        assert connected_subset(LINE, 4) == [0, 1, 2, 3]

    def test_default_root_is_min(self):
        assert 0 in connected_subset(LINE, 1)

    def test_subset_is_connected(self):
        subset = connected_subset(STAR, 3, root=0)
        induced = subset_adjacency(STAR, subset)
        assert is_connected(induced)

    def test_too_large_rejected(self):
        with pytest.raises(TopologyError):
            connected_subset(LINE, 5)

    def test_component_too_small(self):
        with pytest.raises(TopologyError):
            connected_subset(DISCONNECTED, 3, root=0)

    def test_zero_rejected(self):
        with pytest.raises(TopologyError):
            connected_subset(LINE, 0)


class TestSubsetAdjacency:
    def test_induced_edges_only(self):
        induced = subset_adjacency(LINE, [0, 1, 3])
        assert induced == {0: [1], 1: [0], 3: []}

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            subset_adjacency(LINE, [0, 9])
