"""Raw-integer field kernels must agree exactly with the wrapped algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.errors import InterpolationError, NonInvertibleError
from repro.field import kernels
from repro.field.lagrange import (
    SHARED_WEIGHTS,
    LagrangeWeights,
    interpolate_at,
    lagrange_weights_at,
)
from repro.field.modular import mod_inverse
from repro.field.polynomial import Polynomial
from repro.field.prime_field import MERSENNE_61, PrimeField

residues = st.integers(min_value=0, max_value=MERSENNE_61 - 1)


def reduce_m61(x: int) -> int:
    """``x mod 2**61 - 1`` as the library computes it, for ``0 <= x <=
    (p - 1)**2``: ``x = c1 * (p - 1) + c0`` evaluated by the M61 kernel
    (native where it loaded)."""
    field = PrimeField(MERSENNE_61)
    high, low = divmod(x, MERSENNE_61 - 1)
    return Polynomial(field, [low, high]).evaluate_values([MERSENNE_61 - 1])[0]


class TestMersenne61:
    @given(x=st.integers(min_value=0, max_value=(MERSENNE_61 - 1) ** 2))
    @settings(max_examples=200)
    def test_reduction_matches_modulo(self, x):
        assert reduce_m61(x) == x % MERSENNE_61

    @given(a=residues, b=residues)
    @settings(max_examples=200)
    def test_multiplication(self, a, b):
        field = PrimeField(MERSENNE_61)
        assert Polynomial(field, [0, a]).evaluate_values([b]) == [a * b % MERSENNE_61]

    def test_boundary_values(self):
        for x in (0, 1, MERSENNE_61 - 1, MERSENNE_61, MERSENNE_61 + 1, 2 * MERSENNE_61):
            assert reduce_m61(x) == x % MERSENNE_61


class TestInverse:
    @given(a=st.integers(min_value=1, max_value=MERSENNE_61 - 1))
    @settings(max_examples=100)
    def test_matches_mod_inverse(self, a):
        assert kernels.inv_mod(a, MERSENNE_61) == mod_inverse(a, MERSENNE_61)

    def test_zero_raises(self):
        with pytest.raises(NonInvertibleError):
            kernels.inv_mod(0, 97)

    def test_batch_inverse(self):
        values = [3, 5, 96, 1, 42]
        inverses = kernels.batch_inverse(values, 97)
        assert inverses == [mod_inverse(v, 97) for v in values]

    def test_batch_inverse_empty(self):
        assert kernels.batch_inverse([], 97) == []

    def test_batch_inverse_zero_raises(self):
        with pytest.raises(NonInvertibleError):
            kernels.batch_inverse([3, 0, 5], 97)


class TestHorner:
    @given(
        coeffs=st.lists(residues, min_size=1, max_size=12),
        x=residues,
    )
    @settings(max_examples=100)
    def test_matches_polynomial_call(self, coeffs, x):
        field = PrimeField(MERSENNE_61)
        polynomial = Polynomial(field, coeffs)
        assert (
            kernels.horner_eval_many(polynomial.coefficients, [x], MERSENNE_61)
            == [polynomial(x).value]
        )

    def test_many_matches_single(self):
        field = PrimeField(97)
        polynomial = Polynomial(field, [3, 1, 4, 1, 5])
        xs = list(range(20))
        assert kernels.horner_eval_many(polynomial.coefficients, xs, 97) == [
            polynomial(x).value for x in xs
        ]

    def test_evaluate_values_matches_evaluate_many(self):
        field = PrimeField(MERSENNE_61)
        polynomial = Polynomial(field, [7, 0, 13, 29])
        xs = [1, 2, 3, 1000, MERSENNE_61 - 1]
        assert polynomial.evaluate_values(xs) == [polynomial(x).value for x in xs]


class TestLagrangeWeights:
    @given(
        xs=st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        at=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_matches_reference_weights(self, xs, at):
        field = PrimeField(MERSENNE_61)
        fast = kernels.lagrange_weight_values(tuple(xs), MERSENNE_61, at)
        reference = [w.value for w in lagrange_weights_at(field, xs, at)]
        assert list(fast) == reference

    def test_duplicate_points_rejected(self):
        with pytest.raises(InterpolationError):
            kernels.lagrange_weight_values((1, 2, 1), MERSENNE_61)

    def test_cache_returns_exact_values(self):
        cache = LagrangeWeights()
        xs = (3, 7, 11)
        first = cache.weight_values(MERSENNE_61, xs)
        second = cache.weight_values(MERSENNE_61, xs)
        assert first is second  # cached object, not recomputation
        assert first == kernels.lagrange_weight_values(xs, MERSENNE_61, 0)

    def test_cache_bound_clears(self):
        cache = LagrangeWeights(max_entries=4)
        for i in range(10):
            cache.weight_values(97, (i + 1, i + 2), 0)
        assert cache.weight_values(97, (1, 2), 0) == kernels.lagrange_weight_values(
            (1, 2), 97, 0
        )

    def test_interpolate_at_same_on_both_paths(self):
        field = PrimeField(MERSENNE_61)
        points = [(field(x), field(x * x + 5)) for x in (1, 2, 3, 4)]
        with fastpath.forced(True):
            fast = interpolate_at(field, points, 0)
        with fastpath.forced(False):
            reference = interpolate_at(field, points, 0)
        assert fast == reference

    def test_shared_cache_thread_safety_smoke(self):
        import threading

        errors = []

        def worker(offset):
            try:
                for i in range(50):
                    xs = tuple(range(offset + 1, offset + 6))
                    SHARED_WEIGHTS.weight_values(MERSENNE_61, xs, 0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(o,)) for o in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
