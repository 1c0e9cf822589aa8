"""Topology container and hop-graph metrics.

A :class:`Topology` is pure geometry — node ids and planar coordinates.
Hop-level structure (who is whose neighbour) only exists relative to a
channel model, so the graph metrics here take an adjacency mapping
(typically :meth:`repro.phy.link.LinkTable.adjacency`) rather than the
topology itself.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping, Sequence

from repro.errors import TopologyError


class Topology:
    """Immutable set of node positions.

    Args:
        positions: mapping node id → (x, y) in metres.
        name: human-readable label used in traces and reports.
    """

    __slots__ = ("_positions", "_name")

    def __init__(
        self,
        positions: Mapping[int, tuple[float, float]],
        name: str = "topology",
    ):
        if not positions:
            raise TopologyError("topology needs at least one node")
        if any(node_id < 0 for node_id in positions):
            raise TopologyError("node ids must be >= 0")
        self._positions = {
            node_id: (float(x), float(y))
            for node_id, (x, y) in sorted(positions.items())
        }
        self._name = name

    @property
    def name(self) -> str:
        """Label of this topology."""
        return self._name

    @property
    def node_ids(self) -> tuple[int, ...]:
        """Sorted node ids."""
        return tuple(self._positions)

    @property
    def positions(self) -> dict[int, tuple[float, float]]:
        """Copy of the position map."""
        return dict(self._positions)

    def position(self, node_id: int) -> tuple[float, float]:
        """Position of one node."""
        try:
            return self._positions[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes in metres."""
        ax, ay = self.position(a)
        bx, by = self.position(b)
        return math.hypot(ax - bx, ay - by)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` of the deployment."""
        xs = [x for x, _ in self._positions.values()]
        ys = [y for _, y in self._positions.values()]
        return min(xs), min(ys), max(xs), max(ys)

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._positions

    def __repr__(self) -> str:
        return f"Topology({self._name!r}, {len(self)} nodes)"


def bfs_hops(adjacency: Mapping[int, Sequence[int]], source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every reachable node (BFS).

    Unreachable nodes are absent from the result.
    """
    if source not in adjacency:
        raise TopologyError(f"unknown source node {source}")
    hops = {source: 0}
    queue: deque[int] = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in hops:
                hops[neighbor] = hops[node] + 1
                queue.append(neighbor)
    return hops


def eccentricities(adjacency: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """Eccentricity (max hop distance to any node) of every node.

    Raises :class:`TopologyError` if the graph is disconnected, because an
    eccentricity is undefined there and every caller in this library needs
    full connectivity anyway.
    """
    result: dict[int, int] = {}
    for node in adjacency:
        hops = bfs_hops(adjacency, node)
        if len(hops) != len(adjacency):
            missing = sorted(set(adjacency) - set(hops))
            raise TopologyError(
                f"graph disconnected: {missing} unreachable from {node}"
            )
        result[node] = max(hops.values())
    return result


def diameter(adjacency: Mapping[int, Sequence[int]]) -> int:
    """Network diameter in hops (max eccentricity)."""
    return max(eccentricities(adjacency).values())


def is_connected(adjacency: Mapping[int, Sequence[int]]) -> bool:
    """Whether every node reaches every other over the adjacency."""
    if not adjacency:
        return True
    first = next(iter(adjacency))
    return len(bfs_hops(adjacency, first)) == len(adjacency)


def connected_subset(
    adjacency: Mapping[int, Sequence[int]],
    size: int,
    root: int | None = None,
) -> list[int]:
    """A connected ``size``-node subset grown breadth-first from ``root``.

    Used by the Fig-1 sweep to carve sub-testbeds of 3..n nodes out of a
    deployment: BFS order keeps the subset connected (so the protocol can
    actually run on it) and contiguous (so it looks like a plausible
    smaller deployment rather than a scattering of islands).
    """
    if size < 1:
        raise TopologyError(f"subset size must be >= 1, got {size}")
    if size > len(adjacency):
        raise TopologyError(
            f"subset of {size} requested from a {len(adjacency)}-node graph"
        )
    if root is None:
        root = min(adjacency)
    order: list[int] = []
    seen = {root}
    queue: deque[int] = deque([root])
    while queue and len(order) < size:
        node = queue.popleft()
        order.append(node)
        for neighbor in sorted(adjacency[node]):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    if len(order) < size:
        raise TopologyError(
            f"graph component of {root} has only {len(order)} nodes; "
            f"cannot carve a subset of {size}"
        )
    return sorted(order)
