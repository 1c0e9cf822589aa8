"""Tests for Lagrange interpolation."""

from __future__ import annotations

import pytest

from oracles import interpolate_polynomial
from repro.errors import InterpolationError
from repro.field import (
    Polynomial,
    interpolate_at,
    interpolate_constant,
    lagrange_weights_at,
)


class TestInterpolateAt:
    def test_line_through_two_points(self, tiny_field):
        # y = 2x + 1 through (1,3), (2,5); value at 0 is 1.
        points = [(1, 3), (2, 5)]
        assert interpolate_constant(tiny_field, points).value == 1
        assert interpolate_at(tiny_field, points, 10).value == 21

    def test_single_point_is_constant(self, tiny_field):
        assert interpolate_at(tiny_field, [(5, 42)], 17).value == 42

    def test_recovers_random_polynomial_values(self, tiny_field, rng):
        for _ in range(10):
            degree = rng.randrange(1, 6)
            poly = Polynomial(
                tiny_field, [rng.randrange(97) for _ in range(degree + 1)]
            )
            xs = rng.sample(range(1, 97), degree + 1)
            points = [(x, poly(x).value) for x in xs]
            for probe in range(0, 97, 13):
                assert interpolate_at(tiny_field, points, probe) == poly(probe)

    def test_duplicate_x_rejected(self, tiny_field):
        with pytest.raises(InterpolationError):
            interpolate_at(tiny_field, [(1, 2), (1, 3)], 0)

    def test_duplicate_after_reduction_rejected(self, tiny_field):
        # 1 and 98 are the same element of GF(97).
        with pytest.raises(InterpolationError):
            interpolate_at(tiny_field, [(1, 2), (98, 3)], 0)

    def test_empty_points_rejected(self, tiny_field):
        with pytest.raises(InterpolationError):
            interpolate_at(tiny_field, [], 0)

    def test_extra_points_consistent(self, tiny_field):
        # Interpolating a degree-1 polynomial from 3 collinear points works.
        points = [(1, 3), (2, 5), (3, 7)]
        assert interpolate_constant(tiny_field, points).value == 1


class TestWeights:
    def test_weights_sum_to_one_at_any_point(self, tiny_field, rng):
        # Lagrange basis is a partition of unity.
        xs = rng.sample(range(1, 97), 6)
        for at in (0, 13, 50):
            weights = lagrange_weights_at(tiny_field, xs, at)
            assert tiny_field.sum(weights).value == 1

    def test_weights_reproduce_interpolation(self, tiny_field, rng):
        poly = Polynomial(tiny_field, [11, 7, 5])
        xs = [2, 30, 70]
        weights = lagrange_weights_at(tiny_field, xs, 0)
        total = tiny_field.zero()
        for weight, x in zip(weights, xs):
            total = total + weight * poly(x)
        assert total == poly(0)

    def test_weight_duplicate_rejected(self, tiny_field):
        with pytest.raises(InterpolationError):
            lagrange_weights_at(tiny_field, [1, 1], 0)


class TestInterpolatePolynomial:
    def test_full_recovery(self, tiny_field, rng):
        for _ in range(10):
            degree = rng.randrange(0, 6)
            original = Polynomial(
                tiny_field, [rng.randrange(1, 97) for _ in range(degree + 1)]
            )
            xs = rng.sample(range(1, 97), original.degree + 1)
            points = [(x, original(x).value) for x in xs]
            recovered = interpolate_polynomial(tiny_field, points)
            assert recovered == original

    def test_zero_values_recover_zero(self, tiny_field):
        recovered = interpolate_polynomial(tiny_field, [(1, 0), (2, 0), (3, 0)])
        assert recovered.degree == -1

    def test_matches_interpolate_at(self, tiny_field, rng):
        xs = rng.sample(range(1, 97), 5)
        points = [(x, rng.randrange(97)) for x in xs]
        poly = interpolate_polynomial(tiny_field, points)
        for probe in range(0, 20):
            assert poly(probe) == interpolate_at(tiny_field, points, probe)

    def test_large_field(self, field, rng):
        original = Polynomial(
            field, [rng.randrange(field.prime) for _ in range(9)]
        )
        xs = list(range(1, 10))
        points = [(x, original(x).value) for x in xs]
        assert interpolate_polynomial(field, points) == original
