"""Tests for privacy-preserving share aggregation."""

from __future__ import annotations

import pytest

from oracles import accumulate
from repro.errors import ReconstructionError, SecretSharingError
from repro.sss import (
    ShamirScheme,
    Share,
    reconstruct_aggregate,
    reconstruct_from_sums,
)


def aggregate_shares(field, shares_by_point):
    """Sum shares point-by-point, as each holder does during the round.

    ``shares_by_point`` maps a point's integer value to the shares received
    for it.  Returns accumulators keyed the same way.
    """
    return {
        x_value: accumulate(field, x_value, shares)
        for x_value, shares in shares_by_point.items()
        if shares
    }


def deal_all(field, rng, secrets, degree, points):
    """Every dealer splits its secret at every point; returns shares[point][dealer]."""
    scheme = ShamirScheme(field, degree)
    by_point = {x: [] for x in points}
    for dealer_id, secret in enumerate(secrets):
        shares = scheme.split(secret, points=points, rng=rng, dealer_id=dealer_id)
        for share in shares:
            by_point[share.x.value].append(share)
    return by_point


class TestShareAccumulator:
    def test_accumulates_sum(self, field, rng):
        secrets = [10, 20, 30]
        by_point = deal_all(field, rng, secrets, degree=1, points=[1, 2, 3])
        accumulator = accumulate(field, 1, by_point[1])
        assert accumulator.contributors == 0b111
        expected = field.sum(s.y for s in by_point[1])
        assert accumulator.total == expected

    def test_wrong_point_rejected(self, field):
        with pytest.raises(SecretSharingError):
            accumulate(field, 1, [Share(dealer_id=0, x=field(2), y=field(5))])

    def test_double_contribution_rejected(self, field):
        share = Share(dealer_id=0, x=field(1), y=field(5))
        with pytest.raises(SecretSharingError):
            accumulate(field, 1, [share, share])


class TestFullAggregation:
    def test_aggregate_equals_sum_of_secrets(self, field, rng):
        secrets = [100, 200, 300, 400]
        points = list(range(1, 8))
        by_point = deal_all(field, rng, secrets, degree=2, points=points)
        accumulators = list(aggregate_shares(field, by_point).values())
        result = reconstruct_aggregate(field, accumulators, degree=2)
        assert result.value.value == 1000
        assert result.contributors == frozenset({0, 1, 2, 3})
        assert result.points_used == result.points_available

    def test_subset_of_points_sufficient(self, field, rng):
        secrets = [5, 7]
        points = list(range(1, 10))
        by_point = deal_all(field, rng, secrets, degree=3, points=points)
        accumulators = list(aggregate_shares(field, by_point).values())
        result = reconstruct_aggregate(field, accumulators[:4], degree=3)
        assert result.value.value == 12

    def test_single_dealer(self, field, rng):
        by_point = deal_all(field, rng, [42], degree=1, points=[1, 2, 3])
        accumulators = list(aggregate_shares(field, by_point).values())
        result = reconstruct_aggregate(field, accumulators, degree=1)
        assert result.value.value == 42

    def test_wraparound_sum(self, tiny_field, rng):
        secrets = [90, 90]  # sums to 180 = 83 mod 97
        by_point = deal_all(tiny_field, rng, secrets, degree=1, points=[1, 2, 3])
        accumulators = list(aggregate_shares(tiny_field, by_point).values())
        result = reconstruct_aggregate(tiny_field, accumulators, degree=1)
        assert result.value.value == 83


class TestConsistencyHandling:
    def test_inconsistent_point_excluded(self, field, rng):
        # Point 3 misses dealer 1's share: its sum is NOT on the group's
        # polynomial, and blindly including it would corrupt the aggregate.
        secrets = [10, 20, 30]
        points = [1, 2, 3, 4, 5]
        by_point = deal_all(field, rng, secrets, degree=1, points=points)
        by_point[3] = [s for s in by_point[3] if s.dealer_id != 1]
        accumulators = list(aggregate_shares(field, by_point).values())
        result = reconstruct_aggregate(field, accumulators, degree=1)
        assert result.value.value == 60
        assert result.points_used == 4
        assert result.points_used < result.points_available

    def test_majority_group_wins(self, field, rng):
        # Two points carry {0}, three carry {0,1}: the larger (and more
        # complete) group must be chosen.
        secrets = [10, 20]
        points = [1, 2, 3, 4, 5]
        by_point = deal_all(field, rng, secrets, degree=1, points=points)
        for x in (1, 2):
            by_point[x] = [s for s in by_point[x] if s.dealer_id == 0]
        accumulators = list(aggregate_shares(field, by_point).values())
        result = reconstruct_aggregate(field, accumulators, degree=1)
        assert result.contributors == frozenset({0, 1})
        assert result.value.value == 30

    def test_no_group_reaches_threshold(self, field, rng):
        secrets = [10, 20]
        by_point = deal_all(field, rng, secrets, degree=2, points=[1, 2, 3])
        by_point[1] = [s for s in by_point[1] if s.dealer_id == 0]
        accumulators = list(aggregate_shares(field, by_point).values())
        with pytest.raises(ReconstructionError):
            reconstruct_aggregate(field, accumulators, degree=2)

    def test_empty_accumulators_rejected(self, field):
        with pytest.raises(ReconstructionError):
            reconstruct_aggregate(field, [], degree=1)

    def test_majority_contributor_set(self, field, rng):
        secrets = [1, 2]
        by_point = deal_all(field, rng, secrets, degree=1, points=[1, 2, 3])
        by_point[3] = [s for s in by_point[3] if s.dealer_id == 0]
        accumulators = list(aggregate_shares(field, by_point).values())
        result = reconstruct_aggregate(field, accumulators, degree=1)
        assert result.contributors == frozenset({0, 1})

    def test_majority_of_empty_is_none(self, field):
        with pytest.raises(ReconstructionError):
            reconstruct_aggregate(field, [], degree=1)


class TestReconstructFromSums:
    def test_basic(self, field, rng):
        secrets = [11, 22, 33]
        points = [1, 2, 3, 4]
        by_point = deal_all(field, rng, secrets, degree=2, points=points)
        sums = {
            x: field.sum(s.y for s in shares).value
            for x, shares in by_point.items()
        }
        assert reconstruct_from_sums(field, sums, degree=2).value == 66

    def test_too_few_sums(self, field):
        with pytest.raises(ReconstructionError):
            reconstruct_from_sums(field, {1: 5}, degree=1)
