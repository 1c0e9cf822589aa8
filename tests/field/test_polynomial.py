"""Tests for dense polynomials over GF(p)."""

from __future__ import annotations

import random

import pytest

from repro.errors import PolynomialError
from repro.field import Polynomial, PrimeField


class TestConstruction:
    def test_coefficients_normalized(self, tiny_field):
        poly = Polynomial(tiny_field, [1, 2, 0, 0])
        assert poly.coefficients == (1, 2)
        assert poly.degree == 1

    def test_zero_polynomial(self, tiny_field):
        zero = Polynomial(tiny_field, [0])
        assert zero.degree == -1
        assert zero.coefficients == (0,)

    def test_empty_coefficients_is_zero(self, tiny_field):
        assert Polynomial(tiny_field, []).degree == -1

    def test_constant(self, tiny_field):
        poly = Polynomial(tiny_field, [42])
        assert poly.degree == 0
        assert poly(17).value == 42

    def test_coefficients_reduced_mod_p(self, tiny_field):
        poly = Polynomial(tiny_field, [100, 200])
        assert poly.coefficients == (3, 6)

    def test_len(self, tiny_field):
        assert len(Polynomial(tiny_field, [1, 2, 3])) == 3


class TestEvaluation:
    def test_horner_matches_naive(self, tiny_field, rng):
        coefficients = [rng.randrange(97) for _ in range(8)]
        poly = Polynomial(tiny_field, coefficients)
        for x in range(97):
            naive = sum(c * pow(x, i, 97) for i, c in enumerate(coefficients)) % 97
            assert poly(x).value == naive

    def test_constant_term_is_evaluation_at_zero(self, tiny_field):
        poly = Polynomial(tiny_field, [7, 3, 5])
        assert poly(0).value == poly.coefficients[0]

    def test_evaluate_many(self, tiny_field):
        poly = Polynomial(tiny_field, [1, 1])
        assert poly.evaluate_values([0, 1, 2]) == [1, 2, 3]


class TestRandomWithSecret:
    def test_secret_in_constant_term(self, field, rng):
        poly = Polynomial.random_with_secret(field, 777, degree=5, rng=rng)
        assert poly(0).value == 777

    def test_exact_degree(self, field, rng):
        for degree in range(0, 12):
            poly = Polynomial.random_with_secret(field, 1, degree=degree, rng=rng)
            assert poly.degree == max(degree, 0)

    def test_degree_zero_is_constant_secret(self, field, rng):
        poly = Polynomial.random_with_secret(field, 9, degree=0, rng=rng)
        assert poly.degree == 0
        assert poly(5).value == 9

    def test_negative_degree_rejected(self, field, rng):
        with pytest.raises(PolynomialError):
            Polynomial.random_with_secret(field, 1, degree=-1, rng=rng)

    def test_different_rng_different_poly(self, field):
        a = Polynomial.random_with_secret(field, 5, 3, random.Random(1))
        b = Polynomial.random_with_secret(field, 5, 3, random.Random(2))
        assert a != b

    def test_same_rng_reproducible(self, field):
        a = Polynomial.random_with_secret(field, 5, 3, random.Random(1))
        b = Polynomial.random_with_secret(field, 5, 3, random.Random(1))
        assert a == b


class TestArithmetic:
    def test_add(self, tiny_field):
        a = Polynomial(tiny_field, [1, 2, 3])
        b = Polynomial(tiny_field, [4, 5])
        assert (a + b).coefficients == (5, 7, 3)

    def test_add_cancels_leading(self, tiny_field):
        a = Polynomial(tiny_field, [1, 2, 3])
        b = Polynomial(tiny_field, [0, 0, 94])
        assert (a + b).degree == 1

    def test_sub(self, tiny_field):
        a = Polynomial(tiny_field, [5, 7, 3])
        b = Polynomial(tiny_field, [4, 5])
        assert (a - b).coefficients == (1, 2, 3)

    def test_sub_self_is_zero(self, tiny_field):
        a = Polynomial(tiny_field, [5, 7, 3])
        assert (a - a).degree == -1

    def test_neg(self, tiny_field):
        a = Polynomial(tiny_field, [1, 96])
        assert (-a).coefficients == (96, 1)

    def test_mul_polynomials(self, tiny_field):
        # (1 + x)(1 - x) = 1 - x^2
        a = Polynomial(tiny_field, [1, 1])
        b = Polynomial(tiny_field, [1, 96])
        assert (a * b).coefficients == (1, 0, 96)

    def test_mul_scalar(self, tiny_field):
        a = Polynomial(tiny_field, [1, 2])
        assert (a * 3).coefficients == (3, 6)
        assert (3 * a).coefficients == (3, 6)

    def test_mul_by_zero_poly(self, tiny_field):
        a = Polynomial(tiny_field, [1, 2])
        zero = Polynomial(tiny_field, [0])
        assert (a * zero).degree == -1

    def test_evaluation_homomorphism(self, tiny_field, rng):
        # (a + b)(x) == a(x) + b(x) and (a * b)(x) == a(x) * b(x)
        for _ in range(10):
            a = Polynomial(tiny_field, [rng.randrange(97) for _ in range(4)])
            b = Polynomial(tiny_field, [rng.randrange(97) for _ in range(3)])
            x = rng.randrange(97)
            assert (a + b)(x) == a(x) + b(x)
            assert (a * b)(x) == a(x) * b(x)

    def test_cross_field_rejected(self, tiny_field):
        other = PrimeField(101)
        with pytest.raises(PolynomialError):
            Polynomial(tiny_field, [1]) + Polynomial(other, [1])

    def test_shamir_sum_property(self, field, rng):
        # The core PPDA identity: sum of dealer polynomials has the sum of
        # secrets as its constant term.
        secrets = [rng.randrange(1000) for _ in range(5)]
        polys = [
            Polynomial.random_with_secret(field, s, degree=3, rng=rng)
            for s in secrets
        ]
        total = Polynomial(field, [0])
        for poly in polys:
            total = total + poly
        assert total(0).value == sum(secrets) % field.prime


class TestEquality:
    def test_equal(self, tiny_field):
        assert Polynomial(tiny_field, [1, 2]) == Polynomial(tiny_field, [1, 2, 0])

    def test_not_equal_different_field(self, tiny_field):
        assert Polynomial(tiny_field, [1]) != Polynomial(PrimeField(101), [1])

    def test_hashable(self, tiny_field):
        assert len({Polynomial(tiny_field, [1]), Polynomial(tiny_field, [1, 0])}) == 1

    def test_repr_mentions_field(self, tiny_field):
        assert "97" in repr(Polynomial(tiny_field, [1, 2]))
