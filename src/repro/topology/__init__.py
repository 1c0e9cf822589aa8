"""Network topologies: geometry, graph metrics, and testbed layouts.

* :mod:`repro.topology.graph` — the :class:`Topology` container (node
  positions) and hop-distance/diameter/eccentricity computations over a
  good-link adjacency.
* :mod:`repro.topology.generators` — deterministic grid and line
  generators for tests and ablations.
* :mod:`repro.topology.testbeds` — synthetic stand-ins for the two public
  testbeds the paper uses (FlockLab, 26 nodes; DCube, 45 nodes), calibrated
  by tests to the hop structure the paper's numbers imply.
"""

from repro.topology.graph import (
    Topology,
    bfs_hops,
    diameter,
    eccentricities,
    is_connected,
)
from repro.topology.generators import grid, line
from repro.topology.testbeds import dcube, flocklab

__all__ = [
    "Topology",
    "bfs_hops",
    "diameter",
    "eccentricities",
    "is_connected",
    "grid",
    "line",
    "flocklab",
    "dcube",
]
