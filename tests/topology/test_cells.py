"""Tests for the geometric cell partitioner."""

from __future__ import annotations

import pytest

from oracles import random_geometric
from repro.errors import TopologyError
from repro.topology.cells import cell_subspec, cell_topology, partition_nodes
from repro.topology.generators import grid
from repro.topology.graph import Topology
from repro.topology.testbeds import dcube, flocklab


class TestPartitionNodes:
    def test_partition_is_exact_cover(self):
        topology = grid(6, 5, spacing_m=8.0, jitter_m=0.5, seed=3)
        partition = partition_nodes(topology, 7)
        flattened = sorted(node for cell in partition for node in cell)
        assert flattened == sorted(topology.node_ids)

    def test_sizes_near_equal(self):
        topology = random_geometric(53, 120.0, 90.0, seed=9)
        partition = partition_nodes(topology, 8)
        sizes = sorted(len(cell) for cell in partition)
        assert sizes[-1] - sizes[0] <= 1

    def test_deterministic_across_reconstruction(self):
        # The property the sharded campaign's seeding relies on: the
        # partition is a pure function of the geometry, not of object
        # identity or mapping order.
        topology = grid(5, 5, spacing_m=7.0, jitter_m=1.0, seed=4)
        rebuilt = Topology(
            dict(reversed(list(topology.positions.items()))),
            name=topology.name,
        )
        assert partition_nodes(topology, 6) == partition_nodes(rebuilt, 6)

    def test_single_cell_is_whole_deployment(self):
        topology = grid(3, 3)
        assert partition_nodes(topology, 1) == [topology.node_ids]

    def test_cells_are_spatially_compact(self):
        # Striping must beat a random scattering: a cell's bounding box
        # should not span the whole deployment.
        topology = grid(8, 8, spacing_m=10.0, seed=0)
        for cell in partition_nodes(topology, 4):
            xs = [topology.position(n)[0] for n in cell]
            ys = [topology.position(n)[1] for n in cell]
            area = (max(xs) - min(xs)) * (max(ys) - min(ys))
            assert area <= 0.5 * 70.0 * 70.0

    def test_rejects_bad_cell_counts(self):
        topology = grid(2, 2)
        with pytest.raises(TopologyError):
            partition_nodes(topology, 0)
        with pytest.raises(TopologyError):
            partition_nodes(topology, 5)

    @pytest.mark.parametrize("spec_factory", [flocklab, dcube])
    @pytest.mark.parametrize("cells", [2, 4, 5])
    def test_testbeds_partition_cleanly(self, spec_factory, cells):
        spec = spec_factory()
        partition = partition_nodes(spec.topology, cells)
        assert len(partition) == cells
        assert all(cell for cell in partition)


class TestCellSpecs:
    def test_cell_topology_preserves_positions(self):
        topology = grid(4, 3, jitter_m=0.7, seed=2)
        cell = partition_nodes(topology, 3)[1]
        sub = cell_topology(topology, cell, 1)
        assert sub.node_ids == cell
        for node in cell:
            assert sub.position(node) == topology.position(node)

    def test_cell_subspec_inherits_environment(self):
        spec = flocklab()
        cell = partition_nodes(spec.topology, 4)[0]
        sub = cell_subspec(spec, cell, 0)
        assert sub.channel == spec.channel
        assert sub.sharing_ntx == spec.sharing_ntx
        assert sub.extras == spec.extras
        assert sub.topology.node_ids == cell
