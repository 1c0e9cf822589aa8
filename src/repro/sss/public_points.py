"""Node-ID → public evaluation point mapping.

The paper: "Every node is designated for a specific public-point based on
the ID of the node."  We map node ``i`` to field point ``i + 1`` — the +1
keeps every point away from ``x = 0``, where the secret lives.  The
registry validates that the network is small enough that points stay
distinct and non-zero in the chosen field (always true for realistic
fields, but tiny test fields exercise the check).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SecretSharingError
from repro.field.prime_field import FieldElement, PrimeField


class PublicPointRegistry:
    """Map from node ids to their public field points."""

    __slots__ = ("_field", "_node_ids", "_points")

    def __init__(self, field: PrimeField, node_ids: Sequence[int]):
        if len(set(node_ids)) != len(node_ids):
            raise SecretSharingError("node ids must be unique")
        if any(node_id < 0 for node_id in node_ids):
            raise SecretSharingError("node ids must be >= 0")
        if len(node_ids) >= field.prime - 1:
            raise SecretSharingError(
                f"field GF({field.prime}) too small for {len(node_ids)} nodes"
            )
        self._field = field
        self._node_ids = tuple(node_ids)
        self._points: dict[int, FieldElement] = {
            node_id: field(node_id + 1) for node_id in node_ids
        }
        if len({point.value for point in self._points.values()}) != len(self._points):
            raise SecretSharingError("public points collide in this field")

    @property
    def field(self) -> PrimeField:
        """Field the points live in."""
        return self._field

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All registered node ids, in registration order."""
        return self._node_ids

    def point_of(self, node_id: int) -> FieldElement:
        """The public point designated to ``node_id``."""
        point = self._points.get(node_id)
        if point is None:
            raise SecretSharingError(f"unknown node id {node_id}")
        return point

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._points

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return (
            f"PublicPointRegistry({len(self._points)} nodes "
            f"over GF({self._field.prime}))"
        )
