"""Lagrange interpolation over a prime field.

The reconstruction phase of Shamir's scheme interpolates the *sum*
polynomial from ``k + 1`` (point, value) pairs.  Reconstruction almost
always only needs the value at ``x = 0`` (the aggregate secret), for which
computing the full coefficient vector is wasted work — so this module
offers only :func:`interpolate_at` / :func:`interpolate_constant`, O(k²)
evaluation of the interpolating polynomial at a single point.  Full
coefficient recovery is a test oracle and lives with the tests.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro import fastpath
from repro.errors import InterpolationError
from repro.field.kernels import lagrange_weight_values
from repro.field.modular import mod_inverse
from repro.field.prime_field import FieldElement, IntoElement, PrimeField


def _canonical_points(
    field: PrimeField,
    points: Sequence[tuple[IntoElement, IntoElement]],
) -> tuple[list[int], list[int]]:
    """Validate points and return parallel lists of canonical int coords."""
    if not points:
        raise InterpolationError("cannot interpolate from zero points")
    xs: list[int] = []
    ys: list[int] = []
    for x, y in points:
        xs.append(field(x).value)
        ys.append(field(y).value)
    if len(set(xs)) != len(xs):
        duplicates = sorted({x for x in xs if xs.count(x) > 1})
        raise InterpolationError(f"duplicate x-coordinates: {duplicates}")
    return xs, ys


def lagrange_weights_at(
    field: PrimeField,
    xs: Sequence[IntoElement],
    at: IntoElement = 0,
) -> list[FieldElement]:
    """Lagrange basis weights ``L_i(at)`` for the given x-coordinates.

    With these weights, the interpolated value is ``sum(w_i * y_i)``.
    Computing weights separately lets a caller reuse them across many
    reconstructions that share the same point set (e.g. every round of a
    periodic aggregation with a fixed collector set).
    """
    prime = field.prime
    x_values = [field(x).value for x in xs]
    if len(set(x_values)) != len(x_values):
        raise InterpolationError("duplicate x-coordinates in weight computation")
    at_value = field(at).value
    weights: list[FieldElement] = []
    for i, x_i in enumerate(x_values):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(x_values):
            if i == j:
                continue
            numerator = numerator * ((at_value - x_j) % prime) % prime
            denominator = denominator * ((x_i - x_j) % prime) % prime
        weights.append(
            FieldElement(field, numerator * mod_inverse(denominator, prime))
        )
    return weights


class LagrangeWeights:
    """A thread-safe cache of Lagrange basis weights keyed by point set.

    Reconstruction in a periodic aggregation evaluates the *same* basis
    weights every round (the collector set — hence the x-coordinates — is
    fixed for a deployment), so the O(k²) weight computation can be paid
    once per point set and amortised over an entire campaign.  Weights
    are stored as canonical integer residues; entries are exact, so a
    cache hit is value-identical to recomputation.

    The cache is bounded: once ``max_entries`` distinct point sets have
    been seen it is cleared wholesale, which keeps pathological callers
    (e.g. a fuzzer generating fresh point sets forever) from leaking
    memory while costing steady-state workloads nothing.
    """

    __slots__ = ("_cache", "_lock", "_max_entries")

    def __init__(self, max_entries: int = 4096):
        self._cache: dict[tuple[int, tuple[int, ...], int], tuple[int, ...]] = {}
        self._lock = threading.Lock()
        self._max_entries = max_entries

    def weight_values(
        self, prime: int, xs: tuple[int, ...], at: int = 0
    ) -> tuple[int, ...]:
        """Weights ``L_i(at)`` for canonical x-residues ``xs``, cached."""
        key = (prime, xs, at)
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        weights = lagrange_weight_values(xs, prime, at)
        with self._lock:
            if len(self._cache) >= self._max_entries:
                self._cache.clear()
            self._cache[key] = weights
        return weights

    def clear(self) -> None:
        """Drop every cached weight vector."""
        with self._lock:
            self._cache.clear()


#: The library-wide shared weight cache (used when the fast path is on).
SHARED_WEIGHTS = LagrangeWeights()


def interpolate_at(
    field: PrimeField,
    points: Sequence[tuple[IntoElement, IntoElement]],
    at: IntoElement,
) -> FieldElement:
    """Value at ``at`` of the unique polynomial through ``points``.

    O(k²) field operations, no full coefficient recovery.  On the fast
    path the basis weights come from :data:`SHARED_WEIGHTS`, so repeated
    reconstructions over the same point set are O(k).
    """
    xs, ys = _canonical_points(field, points)
    prime = field.prime
    if fastpath.enabled():
        weight_values = SHARED_WEIGHTS.weight_values(
            prime, tuple(xs), field(at).value
        )
        total = 0
        for weight, y in zip(weight_values, ys):
            total += weight * y
        return FieldElement(field, total % prime)
    weights = lagrange_weights_at(field, xs, at)
    total = 0
    for weight, y in zip(weights, ys):
        total = (total + weight.value * y) % prime
    return FieldElement(field, total)


def interpolate_constant(
    field: PrimeField,
    points: Sequence[tuple[IntoElement, IntoElement]],
) -> FieldElement:
    """``P(0)`` of the interpolating polynomial — the Shamir hot path."""
    return interpolate_at(field, points, 0)
