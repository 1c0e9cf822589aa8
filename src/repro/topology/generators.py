"""Deterministic topology generators.

Used by unit tests (small controlled layouts) and by the scaling
ablations.  All randomness comes from an explicit seed so any topology a
test complains about can be reproduced exactly.  The random-geometric
layouts the property tests draw are generated with the tests.
"""

from __future__ import annotations

import random

from repro.errors import TopologyError
from repro.topology.graph import Topology


def line(num_nodes: int, spacing_m: float = 10.0) -> Topology:
    """Nodes on a line — the canonical multi-hop worst case.

    Hop distance between ends is predictable, which makes it the topology
    of choice for flood-latency unit tests.
    """
    if num_nodes < 1:
        raise TopologyError(f"num_nodes must be >= 1, got {num_nodes}")
    if spacing_m <= 0:
        raise TopologyError(f"spacing must be > 0, got {spacing_m}")
    return Topology(
        {i: (i * spacing_m, 0.0) for i in range(num_nodes)},
        name=f"line-{num_nodes}",
    )


def grid(
    columns: int,
    rows: int,
    spacing_m: float = 10.0,
    jitter_m: float = 0.0,
    seed: int = 0,
) -> Topology:
    """Rectangular grid with optional position jitter.

    Jitter breaks the pathological symmetry of a perfect grid (equal
    distances produce correlated shadowing draws) while keeping the hop
    structure predictable.
    """
    if columns < 1 or rows < 1:
        raise TopologyError(f"grid must be >= 1x1, got {columns}x{rows}")
    if spacing_m <= 0:
        raise TopologyError(f"spacing must be > 0, got {spacing_m}")
    if jitter_m < 0:
        raise TopologyError(f"jitter must be >= 0, got {jitter_m}")
    rng = random.Random(seed)
    positions = {}
    for row in range(rows):
        for column in range(columns):
            node_id = row * columns + column
            x = column * spacing_m + rng.uniform(-jitter_m, jitter_m)
            y = row * spacing_m + rng.uniform(-jitter_m, jitter_m)
            positions[node_id] = (x, y)
    return Topology(positions, name=f"grid-{columns}x{rows}")
