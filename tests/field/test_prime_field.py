"""Tests for PrimeField / FieldElement."""

from __future__ import annotations

import random

import pytest

from repro.errors import FieldError, MixedFieldError, NonInvertibleError
from repro.field import MERSENNE_61, MERSENNE_127, FieldElement, PrimeField
from repro.field.polynomial import Polynomial


class TestFieldConstruction:
    def test_interned_by_modulus(self):
        assert PrimeField(97) is PrimeField(97)

    def test_distinct_moduli_distinct_fields(self):
        assert PrimeField(97) is not PrimeField(101)

    def test_rejects_composite(self):
        with pytest.raises(FieldError):
            PrimeField(91)

    def test_rejects_small(self):
        with pytest.raises(FieldError):
            PrimeField(1)

    def test_rejects_non_int(self):
        with pytest.raises(FieldError):
            PrimeField(97.0)  # type: ignore[arg-type]

    def test_default_is_mersenne_61(self):
        assert PrimeField().prime == MERSENNE_61

    def test_mersenne_127_accepted(self):
        assert PrimeField(MERSENNE_127).prime == MERSENNE_127

    def test_order_equals_prime(self):
        assert PrimeField(97).order == 97


class TestCoercion:
    def test_int_coercion_reduces(self, tiny_field):
        assert tiny_field(100).value == 3

    def test_negative_coercion(self, tiny_field):
        assert tiny_field(-1).value == 96

    def test_element_passthrough(self, tiny_field):
        element = tiny_field(5)
        assert tiny_field(element) is element

    def test_cross_field_coercion_rejected(self, tiny_field, field):
        with pytest.raises(MixedFieldError):
            tiny_field(field(5))

    def test_non_int_rejected(self, tiny_field):
        with pytest.raises(FieldError):
            tiny_field("5")  # type: ignore[arg-type]


class TestArithmetic:
    def test_add(self, tiny_field):
        assert (tiny_field(90) + tiny_field(10)).value == 3

    def test_add_int(self, tiny_field):
        assert (tiny_field(90) + 10).value == 3
        assert (10 + tiny_field(90)).value == 3

    def test_sub(self, tiny_field):
        assert (tiny_field(3) - tiny_field(10)).value == 90

    def test_rsub(self, tiny_field):
        assert (3 - tiny_field(10)).value == 90

    def test_mul(self, tiny_field):
        assert (tiny_field(10) * tiny_field(10)).value == 3

    def test_div(self, tiny_field):
        a, b = tiny_field(17), tiny_field(23)
        assert ((a / b) * b) == a

    def test_rdiv(self, tiny_field):
        assert (1 / tiny_field(2)) * tiny_field(2) == tiny_field(1)

    def test_div_by_zero(self, tiny_field):
        with pytest.raises(NonInvertibleError):
            tiny_field(5) / tiny_field(0)

    def test_pow(self, tiny_field):
        # Fermat: a^(p-1) = 1 for a != 0
        assert tiny_field(5) ** 96 == tiny_field(1)

    def test_pow_negative_exponent(self, tiny_field):
        assert tiny_field(5) ** -1 == tiny_field(5).inverse()

    def test_neg(self, tiny_field):
        assert (-tiny_field(1)).value == 96

    def test_inverse_of_zero(self, tiny_field):
        with pytest.raises(NonInvertibleError):
            tiny_field(0).inverse()

    def test_mixing_fields_raises(self, tiny_field, field):
        with pytest.raises(MixedFieldError):
            tiny_field(1) + field(1)

    def test_unsupported_operand_returns_not_implemented(self, tiny_field):
        with pytest.raises(TypeError):
            tiny_field(1) + "x"  # type: ignore[operator]


class TestEqualityAndHashing:
    def test_equal_elements(self, tiny_field):
        assert tiny_field(5) == tiny_field(5)
        assert tiny_field(5) == 5
        assert tiny_field(5) == 102  # 102 mod 97 == 5

    def test_unequal_elements(self, tiny_field):
        assert tiny_field(5) != tiny_field(6)

    def test_hashable_in_sets(self, tiny_field):
        assert len({tiny_field(5), tiny_field(5), tiny_field(6)}) == 2

    def test_bool(self, tiny_field):
        assert not tiny_field(0)
        assert tiny_field(1)

    def test_int_conversion(self, tiny_field):
        assert int(tiny_field(42)) == 42


class TestSerialization:
    def test_roundtrip_bytes(self, field):
        element = field(1234567890123456789)
        assert field.element_from_bytes(element.to_bytes()) == element

    def test_element_size(self, field):
        assert field.element_size_bytes == 8

    def test_element_size_127(self):
        assert PrimeField(MERSENNE_127).element_size_bytes == 16

    def test_non_canonical_bytes_rejected(self, tiny_field):
        with pytest.raises(FieldError):
            tiny_field.element_from_bytes(bytes([200]))

    def test_fixed_width(self, field):
        assert len(field(0).to_bytes()) == field.element_size_bytes


class TestHelpers:
    def test_zero_one(self, tiny_field):
        assert tiny_field.zero().value == 0
        assert tiny_field(1).value == 1

    def test_sum(self, tiny_field):
        elements = [tiny_field(40), tiny_field(40), 30]
        assert tiny_field.sum(elements).value == 13

    def test_sum_empty(self, tiny_field):
        assert tiny_field.sum([]) == tiny_field.zero()

    def test_random_element_in_range(self, tiny_field):
        # The field's random elements are a dealer's coefficients.
        rng = random.Random(7)
        for _ in range(50):
            poly = Polynomial.random_with_secret(tiny_field, 0, degree=3, rng=rng)
            assert all(0 <= c < 97 for c in poly.coefficients)

    def test_elements_iterator(self):
        small = PrimeField(5)
        assert [e.value for e in small.elements()] == [0, 1, 2, 3, 4]

    def test_contains(self, tiny_field, field):
        assert tiny_field(3) in tiny_field
        assert field(3) not in tiny_field
        assert 3 not in tiny_field

    def test_repr(self, tiny_field):
        assert "97" in repr(tiny_field)
        assert "97" in repr(tiny_field(5))
