"""Shamir's perfect-secrecy claim, checked, and the adversary's guess.

The exhaustive checks are the executable form of Shamir's perfect-secrecy
theorem; the statistical and end-to-end checks scale the claim up to the
production field and the real protocol.  Both checkers are oracles that
live here: the package itself only runs the adversary's guess.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

import pytest

from repro.crypto.prng import AesCtrDrbg
from repro.errors import SecretSharingError
from repro.field import MERSENNE_61, Polynomial, PrimeField, interpolate_constant
from repro.privacy.analysis import guess_secret_from_view

TINY = PrimeField(11)
FIELD = PrimeField(MERSENNE_61)


def _coalition_view_distribution(
    field: PrimeField,
    secret: int,
    degree: int,
    coalition_points: Sequence[int],
) -> Counter:
    """Exact distribution of the coalition's share tuple for ``secret``.

    Enumerates all ``p^degree`` dealer polynomials with the given constant
    term (uniform randomness), recording the tuple of values at the
    coalition's points.  Only feasible for tiny fields — that is the
    point: exhaustiveness buys certainty.
    """
    prime = field.prime
    if prime ** degree > 500_000:
        raise SecretSharingError(
            f"exhaustive enumeration of {prime}^{degree} polynomials is "
            "infeasible; use a smaller field or degree"
        )
    distribution: Counter = Counter()
    for coefficients in itertools.product(range(prime), repeat=degree):
        poly = Polynomial(field, [secret % prime, *coefficients])
        view = tuple(poly(x).value for x in coalition_points)
        distribution[view] += 1
    return distribution


def exhaustive_secrecy_check(
    field: PrimeField,
    degree: int,
    coalition_points: Sequence[int],
    secret_a: int,
    secret_b: int,
) -> bool:
    """Whether two secrets induce *identical* coalition-view distributions.

    Returns True iff the coalition of ``len(coalition_points)`` holders
    learns exactly nothing distinguishing ``secret_a`` from ``secret_b``.
    Shamir guarantees True whenever ``len(coalition_points) <= degree``
    and False (for almost all pairs) above the threshold.
    """
    if len(set(coalition_points)) != len(coalition_points):
        raise SecretSharingError("coalition points must be distinct")
    if any(x % field.prime == 0 for x in coalition_points):
        raise SecretSharingError("x=0 cannot be a coalition point")
    dist_a = _coalition_view_distribution(field, secret_a, degree, coalition_points)
    dist_b = _coalition_view_distribution(field, secret_b, degree, coalition_points)
    return dist_a == dist_b


def statistical_view_distance(
    field: PrimeField,
    degree: int,
    coalition_points: Sequence[int],
    secret_a: int,
    secret_b: int,
    samples: int = 2000,
    seed: bytes = b"privacy-sampler",
    buckets: int = 16,
) -> float:
    """Empirical total-variation distance of the adversary's best statistic.

    Raw coalition views are essentially unique in a large field, so a
    naive joint histogram saturates on sampling noise.  Instead we apply
    the adversary's *sufficient statistic*: Lagrange-interpolate the
    constant term through the coalition's points.  Below the threshold
    that statistic is a uniformly random field element regardless of the
    secret (Shamir's theorem), so the bucketized distributions for two
    secrets match up to sampling noise ``O(sqrt(buckets/samples))``.  At
    or above the threshold the statistic *is* the secret, making the
    distance ≈ 1.
    """
    if samples < 1:
        raise SecretSharingError(f"samples must be >= 1, got {samples}")
    counters = []
    for tag, secret in (("a", secret_a), ("b", secret_b)):
        drbg = AesCtrDrbg.from_seed(seed + tag.encode())
        counter: Counter = Counter()
        for _ in range(samples):
            poly = Polynomial.random_with_secret(field, secret, degree, drbg)
            points = [(x, poly(x).value) for x in coalition_points]
            statistic = interpolate_constant(field, points).value
            counter[statistic * buckets // field.prime] += 1
        counters.append(counter)
    dist_a, dist_b = counters
    keys = set(dist_a) | set(dist_b)
    return sum(abs(dist_a.get(k, 0) - dist_b.get(k, 0)) for k in keys) / (2 * samples)


class TestExhaustiveSecrecy:
    def test_below_threshold_perfect_secrecy(self):
        # Degree 2, coalition of 2: distributions must be identical.
        assert exhaustive_secrecy_check(
            TINY, degree=2, coalition_points=[1, 2], secret_a=3, secret_b=8
        )

    def test_at_threshold_secrecy_holds(self):
        # Coalition of exactly `degree` members still learns nothing.
        assert exhaustive_secrecy_check(
            TINY, degree=1, coalition_points=[5], secret_a=0, secret_b=10
        )

    def test_above_threshold_breaks(self):
        # Coalition of degree+1 determines the secret: distributions differ.
        assert not exhaustive_secrecy_check(
            TINY, degree=1, coalition_points=[1, 2], secret_a=3, secret_b=8
        )

    def test_same_secret_trivially_identical(self):
        assert exhaustive_secrecy_check(
            TINY, degree=1, coalition_points=[1, 2], secret_a=4, secret_b=4
        )

    def test_every_coalition_size_below_threshold(self):
        # Sweep every coalition size for degree 3 over a tiny field.
        for size in (1, 2, 3):
            points = list(range(1, size + 1))
            assert exhaustive_secrecy_check(
                TINY, degree=3, coalition_points=points, secret_a=1, secret_b=9
            ), f"secrecy failed for coalition of {size}"

    def test_duplicate_points_rejected(self):
        with pytest.raises(SecretSharingError):
            exhaustive_secrecy_check(TINY, 1, [1, 1], 0, 1)

    def test_zero_point_rejected(self):
        with pytest.raises(SecretSharingError):
            exhaustive_secrecy_check(TINY, 1, [0], 0, 1)

    def test_infeasible_enumeration_rejected(self):
        with pytest.raises(SecretSharingError):
            exhaustive_secrecy_check(FIELD, 3, [1], 0, 1)


class TestStatisticalDistance:
    def test_below_threshold_noise_level(self):
        distance = statistical_view_distance(
            FIELD,
            degree=3,
            coalition_points=[1, 2, 3],
            secret_a=5,
            secret_b=999_999,
            samples=1500,
        )
        # Pure sampling noise: TV distance well below any real signal.
        assert distance < 0.15

    def test_above_threshold_distinguishable(self):
        # With degree+1 points the interpolated constant IS the secret:
        # the statistic distributions are disjoint point masses.
        distance = statistical_view_distance(
            FIELD,
            degree=1,
            coalition_points=[1, 2],
            secret_a=0,
            secret_b=MERSENNE_61 - 1,
            samples=300,
            buckets=4,
        )
        assert distance > 0.95

    def test_invalid_samples(self):
        with pytest.raises(SecretSharingError):
            statistical_view_distance(FIELD, 1, [1], 0, 1, samples=0)


class TestGuess:
    def test_insufficient_shares_refuses(self):
        assert guess_secret_from_view(FIELD, degree=3, shares=[(1, 5)]) is None

    def test_sufficient_shares_exact(self, rng):
        from repro.sss import ShamirScheme

        scheme = ShamirScheme(FIELD, degree=2)
        shares = scheme.split(123, points=[1, 2, 3], rng=rng)
        pairs = [(s.x.value, s.y.value) for s in shares]
        assert guess_secret_from_view(FIELD, 2, pairs) == 123
