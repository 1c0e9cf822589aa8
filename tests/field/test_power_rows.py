"""``horner_eval_many`` against cached power rows equals Horner's rule."""

from __future__ import annotations

import random

import pytest

from repro import fastpath
from repro.field import kernels
from repro.field.polynomial import Polynomial
from repro.field.prime_field import MERSENNE_61, PrimeField


@pytest.fixture
def empty_rows():
    kernels._POWER_ROWS.clear()
    yield
    kernels._POWER_ROWS.clear()


@pytest.mark.parametrize("prime", [97, MERSENNE_61])
def test_matches_polynomial_call_for_every_length(prime, empty_rows):
    field = PrimeField(prime)
    rnd = random.Random(prime)
    xs = [0, 1, prime - 1] + rnd.sample(range(2, prime - 1), 20)
    for length in range(1, 41):
        coeffs = [rnd.randrange(prime) for _ in range(length - 1)]
        coeffs.append(rnd.randrange(1, prime))
        polynomial = Polynomial(field, coeffs)
        expected = [polynomial(x).value for x in xs]
        assert kernels.horner_eval_many(polynomial.coefficients, xs, prime) == expected
        # A second evaluation is served from the cached rows.
        assert kernels.horner_eval_many(polynomial.coefficients, xs, prime) == expected
        assert polynomial.evaluate_values(xs) == expected


def test_eviction_keeps_values_exact(monkeypatch, empty_rows):
    monkeypatch.setattr(kernels, "_POWER_ROWS_MAX", 2)
    field = PrimeField(MERSENNE_61)
    rnd = random.Random(3)
    point_sets = [rnd.sample(range(1, 10_000), 12) for _ in range(5)]
    polynomial = Polynomial.random_with_secret(field, 42, 7, rnd)
    for _ in range(3):
        for xs in point_sets:
            assert kernels.horner_eval_many(polynomial.coefficients, xs, MERSENNE_61) == [
                kernels.horner_eval(polynomial.coefficients, x, MERSENNE_61) for x in xs
            ]
            assert len(kernels._POWER_ROWS) <= 2


def test_non_canonical_inputs_agree_with_horner(empty_rows):
    coefficients = [5, 200, -3, 96]
    xs = [98, -1, 1000]
    assert kernels.horner_eval_many(coefficients, xs, 97) == [
        kernels.horner_eval(coefficients, x, 97) for x in xs
    ]


def test_empty_polynomial_and_points(empty_rows):
    assert kernels.horner_eval_many([], [1, 2], 97) == [0, 0]
    assert kernels.horner_eval_many([1, 2], [], 97) == []


def test_clear_process_caches_empties_power_rows():
    kernels.horner_eval_many([1, 2, 3], [4, 5], 97)
    assert kernels._POWER_ROWS
    fastpath.clear_process_caches()
    assert not kernels._POWER_ROWS


def test_random_with_secret_is_normalized_and_draw_identical():
    field = PrimeField(MERSENNE_61)
    for degree in range(0, 12):
        dealt = Polynomial.random_with_secret(field, 9, degree, random.Random(degree))
        rng = random.Random(degree)
        coeffs = [9] + [rng.randrange(field.prime) for _ in range(degree - 1)]
        if degree >= 1:
            coeffs.append(1 + rng.randrange(field.prime - 1))
        assert dealt == Polynomial(field, coeffs)
        assert dealt.degree == degree
