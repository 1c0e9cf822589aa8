"""Finite-field arithmetic substrate.

Shamir Secret Sharing operates over a prime field GF(p).  This package
provides:

* :mod:`repro.field.modular` — integer modular arithmetic primitives
  (extended gcd, modular inverse, Miller-Rabin primality).
* :mod:`repro.field.prime_field` — :class:`PrimeField` /
  :class:`FieldElement`, a safe wrapper that prevents cross-field mixing.
* :mod:`repro.field.polynomial` — dense polynomials over a prime field
  with Horner evaluation and ring arithmetic.
* :mod:`repro.field.lagrange` — Lagrange interpolation in the
  evaluate-at-a-point form secret-sharing reconstruction uses.

The default modulus used throughout the library is the Mersenne prime
``2**61 - 1``: large enough that realistic sensor aggregates never wrap,
small enough that every share fits comfortably inside a single AES-128
block when serialized.
"""

from repro.field.modular import egcd, is_probable_prime, mod_inverse
from repro.field.prime_field import (
    DEFAULT_PRIME,
    MERSENNE_127,
    MERSENNE_61,
    FieldElement,
    PrimeField,
)
from repro.field.polynomial import Polynomial
from repro.field.lagrange import (
    interpolate_at,
    interpolate_constant,
    lagrange_weights_at,
)

__all__ = [
    "egcd",
    "mod_inverse",
    "is_probable_prime",
    "PrimeField",
    "FieldElement",
    "Polynomial",
    "DEFAULT_PRIME",
    "MERSENNE_61",
    "MERSENNE_127",
    "interpolate_at",
    "interpolate_constant",
    "lagrange_weights_at",
]
