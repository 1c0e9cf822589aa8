"""Tests for the node-ID → public point registry."""

from __future__ import annotations

import pytest

from repro.errors import SecretSharingError
from repro.field import PrimeField
from repro.sss import PublicPointRegistry


class TestRegistry:
    def test_point_is_id_plus_one(self, field):
        registry = PublicPointRegistry(field, [0, 1, 5])
        assert registry.point_of(0).value == 1
        assert registry.point_of(5).value == 6

    def test_no_zero_point(self, field):
        registry = PublicPointRegistry(field, range(20))
        assert all(registry.point_of(i).value != 0 for i in range(20))

    def test_unknown_node(self, field):
        registry = PublicPointRegistry(field, [0])
        with pytest.raises(SecretSharingError):
            registry.point_of(99)

    def test_duplicate_ids_rejected(self, field):
        with pytest.raises(SecretSharingError):
            PublicPointRegistry(field, [1, 1])
        # Distinct ids a prime apart share one point.
        with pytest.raises(SecretSharingError, match="collide"):
            PublicPointRegistry(PrimeField(7), [0, 7])

    def test_negative_ids_rejected(self, field):
        with pytest.raises(SecretSharingError):
            PublicPointRegistry(field, [-1, 0])

    def test_field_too_small(self):
        tiny = PrimeField(5)
        with pytest.raises(SecretSharingError):
            PublicPointRegistry(tiny, range(5))

    def test_points_of_bulk(self, field):
        registry = PublicPointRegistry(field, [0, 1, 2])
        assert [registry.point_of(n).value for n in [2, 0]] == [3, 1]

    def test_contains_and_len(self, field):
        registry = PublicPointRegistry(field, [0, 7])
        assert 7 in registry
        assert 3 not in registry
        assert len(registry) == 2

    def test_node_ids_order_preserved(self, field):
        registry = PublicPointRegistry(field, [5, 2, 9])
        assert registry.node_ids == (5, 2, 9)

    def test_repr(self, field):
        assert "2 nodes" in repr(PublicPointRegistry(field, [0, 1]))
