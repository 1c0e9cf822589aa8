"""Property-based tests (hypothesis) for the field layer.

These pin down the algebraic axioms the secret-sharing proofs rely on:
GF(p) is a field, polynomials form a ring, evaluation is a ring
homomorphism, and interpolation inverts evaluation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interpolate_polynomial
from repro.field import (
    MERSENNE_61,
    Polynomial,
    PrimeField,
    interpolate_at,
)

FIELD = PrimeField(MERSENNE_61)
SMALL = PrimeField(97)

element_values = st.integers(min_value=0, max_value=MERSENNE_61 - 1)
small_values = st.integers(min_value=0, max_value=96)


@st.composite
def elements(draw):
    return FIELD(draw(element_values))


@st.composite
def small_polys(draw, max_degree=6):
    count = draw(st.integers(min_value=1, max_value=max_degree + 1))
    return Polynomial(SMALL, [draw(small_values) for _ in range(count)])


class TestFieldAxioms:
    @given(a=elements(), b=elements())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(a=elements(), b=elements(), c=elements())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=elements(), b=elements())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(a=elements(), b=elements(), c=elements())
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(a=elements(), b=elements(), c=elements())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=elements())
    def test_additive_inverse(self, a):
        assert a + (-a) == FIELD(0)

    @given(a=elements())
    def test_multiplicative_inverse(self, a):
        if a.value != 0:
            assert a * a.inverse() == FIELD(1)

    @given(a=elements())
    def test_identities(self, a):
        assert a + FIELD(0) == a
        assert a * FIELD(1) == a

    @given(a=elements(), b=elements())
    def test_subtraction_is_inverse_of_addition(self, a, b):
        assert (a + b) - b == a

    @given(a=elements(), b=elements())
    def test_division_is_inverse_of_multiplication(self, a, b):
        if b.value != 0:
            assert (a * b) / b == a

    @given(a=elements())
    def test_bytes_roundtrip(self, a):
        assert FIELD.element_from_bytes(a.to_bytes()) == a


class TestPolynomialRing:
    @given(a=small_polys(), b=small_polys())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(a=small_polys(), b=small_polys(), c=small_polys())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=small_polys(), b=small_polys(), x=small_values)
    def test_evaluation_is_homomorphism(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)

    @given(a=small_polys(), b=small_polys())
    def test_degree_of_product(self, a, b):
        if a.degree >= 0 and b.degree >= 0:
            assert (a * b).degree == a.degree + b.degree

    @given(a=small_polys())
    def test_additive_cancellation(self, a):
        assert (a - a).degree == -1


class TestInterpolationInvertsEvaluation:
    @settings(max_examples=50)
    @given(data=st.data())
    def test_roundtrip(self, data):
        degree = data.draw(st.integers(min_value=0, max_value=6))
        coefficients = data.draw(
            st.lists(small_values, min_size=degree + 1, max_size=degree + 1)
        )
        original = Polynomial(SMALL, coefficients)
        xs = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=96),
                min_size=degree + 1,
                max_size=degree + 1,
                unique=True,
            )
        )
        points = [(x, original(x).value) for x in xs]
        recovered = interpolate_polynomial(SMALL, points)
        # Recovered polynomial agrees with the original everywhere (they may
        # differ as coefficient vectors only if degree dropped, but
        # normalization makes them equal objects).
        for probe in range(0, 97, 7):
            assert recovered(probe) == original(probe)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_interpolate_at_matches_full(self, data):
        xs = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=96),
                min_size=1,
                max_size=6,
                unique=True,
            )
        )
        ys = data.draw(
            st.lists(small_values, min_size=len(xs), max_size=len(xs))
        )
        points = list(zip(xs, ys))
        at = data.draw(small_values)
        assert interpolate_at(SMALL, points, at) == interpolate_polynomial(
            SMALL, points
        )(at)
