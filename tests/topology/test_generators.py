"""Tests for topology generators."""

from __future__ import annotations


import pytest

from oracles import random_geometric
from repro.errors import TopologyError
from repro.topology.generators import grid, line


class TestLine:
    def test_spacing(self):
        topo = line(5, spacing_m=10.0)
        assert len(topo) == 5
        assert topo.distance(0, 4) == pytest.approx(40.0)

    def test_single_node(self):
        assert len(line(1)) == 1

    def test_invalid(self):
        with pytest.raises(TopologyError):
            line(0)
        with pytest.raises(TopologyError):
            line(3, spacing_m=0)


class TestGrid:
    def test_shape(self):
        topo = grid(4, 3, spacing_m=5.0)
        assert len(topo) == 12
        min_x, min_y, max_x, max_y = topo.bounding_box()
        assert max_x - min_x == pytest.approx(15.0)
        assert max_y - min_y == pytest.approx(10.0)

    def test_jitter_bounded(self):
        clean = grid(3, 3, spacing_m=10.0)
        noisy = grid(3, 3, spacing_m=10.0, jitter_m=1.0, seed=5)
        for node in clean.node_ids:
            cx, cy = clean.position(node)
            nx, ny = noisy.position(node)
            assert abs(nx - cx) <= 1.0
            assert abs(ny - cy) <= 1.0

    def test_jitter_reproducible(self):
        a = grid(3, 3, jitter_m=1.0, seed=7)
        b = grid(3, 3, jitter_m=1.0, seed=7)
        assert a.positions == b.positions

    def test_invalid(self):
        with pytest.raises(TopologyError):
            grid(0, 3)
        with pytest.raises(TopologyError):
            grid(3, 3, jitter_m=-1)


class TestRandomGeometric:
    def test_count_and_bounds(self):
        topo = random_geometric(20, 50.0, 30.0, seed=3)
        assert len(topo) == 20
        min_x, min_y, max_x, max_y = topo.bounding_box()
        assert min_x >= 0 and min_y >= 0
        assert max_x <= 50 and max_y <= 30

    def test_min_separation_respected(self):
        topo = random_geometric(15, 40.0, 40.0, seed=1, min_separation_m=3.0)
        nodes = topo.node_ids
        for i in nodes:
            for j in nodes:
                if i < j:
                    assert topo.distance(i, j) >= 3.0

    def test_reproducible(self):
        a = random_geometric(10, 20.0, 20.0, seed=9)
        b = random_geometric(10, 20.0, 20.0, seed=9)
        assert a.positions == b.positions

    def test_impossible_packing_rejected(self):
        with pytest.raises(TopologyError):
            random_geometric(100, 5.0, 5.0, min_separation_m=2.0, max_attempts=500)

    def test_invalid_area(self):
        with pytest.raises(TopologyError):
            random_geometric(5, 0.0, 10.0)
