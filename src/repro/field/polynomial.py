"""Dense polynomials over a prime field.

Shamir's scheme hides a secret as the constant term of a random polynomial
and evaluates it at public points.  This module provides the polynomial
algebra the scheme (and its tests) need: construction from coefficients or
from a secret plus randomness, Horner evaluation, ring arithmetic, and a
couple of convenience constructors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import PolynomialError
from repro.field.kernels import M61, horner_eval_m61, horner_eval_many
from repro.field.prime_field import FieldElement, IntoElement, PrimeField


class Polynomial:
    """A polynomial ``c0 + c1*x + ... + ck*x**k`` over GF(p).

    Coefficients are stored dense, lowest degree first, and normalized so
    that the highest stored coefficient is non-zero (the zero polynomial
    stores a single zero coefficient and reports degree ``-1``).
    """

    __slots__ = ("_field", "_coeffs")

    def __init__(self, field: PrimeField, coefficients: Iterable[IntoElement]):
        self._field = field
        coeffs = [field(c).value for c in coefficients]
        if not coeffs:
            coeffs = [0]
        # Normalize: strip trailing zero coefficients, keep at least one.
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def random_with_secret(
        cls,
        field: PrimeField,
        secret: IntoElement,
        degree: int,
        rng,
    ) -> "Polynomial":
        """Random degree-``degree`` polynomial with ``P(0) == secret``.

        This is the dealer polynomial of Shamir's scheme: the constant term
        carries the secret and the remaining ``degree`` coefficients are
        uniform random.  The leading coefficient is drawn from ``[1, p)`` so
        the polynomial has *exactly* the requested degree — a lower actual
        degree would silently weaken the collusion threshold.
        """
        if degree < 0:
            raise PolynomialError(f"degree must be >= 0, got {degree}")
        prime = field.prime
        randrange = rng.randrange
        coeffs: list[int] = [field(secret).value]
        # An rng with ``randrange_many`` (the protocol's DRBG) draws the
        # middle coefficients in one call, stream-identical to the loop.
        randrange_many = getattr(rng, "randrange_many", None)
        if randrange_many is not None:
            coeffs.extend(randrange_many(prime, degree - 1))
        else:
            coeffs.extend([randrange(prime) for _ in range(degree - 1)])
        if degree >= 1:
            coeffs.append(1 + randrange(prime - 1))
        # Every coefficient is already a canonical residue and, from degree
        # 1 on, the leading one is non-zero, so the constructor's coercion
        # and normalization would be no-ops.
        polynomial = cls.__new__(cls)
        polynomial._field = field
        polynomial._coeffs = tuple(coeffs)
        return polynomial

    # -- basic accessors --------------------------------------------------------

    @property
    def field(self) -> PrimeField:
        """Field the coefficients live in."""
        return self._field

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Coefficient integers, lowest degree first."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree ``-1``."""
        if len(self._coeffs) == 1 and self._coeffs[0] == 0:
            return -1
        return len(self._coeffs) - 1

    def __len__(self) -> int:
        return len(self._coeffs)

    # -- evaluation -------------------------------------------------------------

    def __call__(self, x: IntoElement) -> FieldElement:
        """Evaluate at ``x`` with Horner's rule."""
        prime = self._field.prime
        x_value = self._field(x).value
        accumulator = 0
        for coefficient in reversed(self._coeffs):
            accumulator = (accumulator * x_value + coefficient) % prime
        return FieldElement(self._field, accumulator)

    def evaluate_values(self, xs: Sequence[int]) -> list[int]:
        """Evaluate at many canonical integer points, returning raw residues.

        The allocation-free bulk form of :meth:`__call__` used by the
        sharing hot path: no ``FieldElement`` is created per evaluation.
        The caller is responsible for ``xs`` being canonical (``0 <= x < p``).
        Over ``2**61 - 1`` the native Horner kernel evaluates, where it
        loaded; every other prime and input takes the Python kernel.
        """
        prime = self._field.prime
        if prime == M61:
            values = horner_eval_m61(self._coeffs, xs)
            if values is not None:
                return values
        return horner_eval_many(self._coeffs, xs, prime)

    # -- ring arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "Polynomial") -> None:
        if other._field is not self._field:
            raise PolynomialError(
                "cannot combine polynomials over different fields: "
                f"GF({self._field.prime}) vs GF({other._field.prime})"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_field(other)
        longer, shorter = self._coeffs, other._coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        summed = list(longer)
        for i, coefficient in enumerate(shorter):
            summed[i] = (summed[i] + coefficient) % self._field.prime
        return Polynomial(self._field, summed)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_field(other)
        length = max(len(self._coeffs), len(other._coeffs))
        prime = self._field.prime
        diff = []
        for i in range(length):
            a = self._coeffs[i] if i < len(self._coeffs) else 0
            b = other._coeffs[i] if i < len(other._coeffs) else 0
            diff.append((a - b) % prime)
        return Polynomial(self._field, diff)

    def __neg__(self) -> "Polynomial":
        prime = self._field.prime
        return Polynomial(self._field, [(-c) % prime for c in self._coeffs])

    def __mul__(self, other: "Polynomial | int | FieldElement") -> "Polynomial":
        prime = self._field.prime
        if isinstance(other, (int, FieldElement)):
            scalar = self._field(other).value
            return Polynomial(self._field, [c * scalar % prime for c in self._coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_field(other)
        product = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                product[i + j] = (product[i + j] + a * b) % prime
        return Polynomial(self._field, product)

    __rmul__ = __mul__

    # -- comparison / repr -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return other._field is self._field and other._coeffs == self._coeffs

    def __hash__(self) -> int:
        return hash((self._field.prime, self._coeffs))

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{c}*x^{i}" if i else str(c)
            for i, c in enumerate(self._coeffs)
            if c or len(self._coeffs) == 1
        )
        return f"Polynomial({terms} over GF({self._field.prime}))"
