"""Tests for the single-dealer Shamir scheme."""

from __future__ import annotations

import random

import pytest

from oracles import interpolate_polynomial
from repro.errors import ReconstructionError, SecretSharingError
from repro.field import PrimeField
from repro.sss import ShamirScheme, Share


class TestConstruction:
    def test_properties(self, field):
        scheme = ShamirScheme(field, degree=3)
        assert scheme.degree == 3
        assert scheme.threshold == 4
        assert scheme.field is field

    def test_negative_degree_rejected(self, field):
        with pytest.raises(SecretSharingError):
            ShamirScheme(field, degree=-1)

    def test_degree_too_large_for_field(self):
        tiny = PrimeField(5)
        with pytest.raises(SecretSharingError):
            ShamirScheme(tiny, degree=4)

    def test_repr(self, field):
        assert "degree=3" in repr(ShamirScheme(field, 3))


class TestSplit:
    def test_share_count(self, field, rng):
        scheme = ShamirScheme(field, degree=2)
        shares = scheme.split(42, points=[1, 2, 3, 4, 5], rng=rng)
        assert len(shares) == 5

    def test_share_points_match_input(self, field, rng):
        scheme = ShamirScheme(field, degree=1)
        shares = scheme.split(42, points=[7, 9], rng=rng)
        assert [s.x.value for s in shares] == [7, 9]

    def test_dealer_id_recorded(self, field, rng):
        scheme = ShamirScheme(field, degree=1)
        shares = scheme.split(42, points=[1, 2], rng=rng, dealer_id=13)
        assert all(s.dealer_id == 13 for s in shares)

    def test_too_few_points_rejected(self, field, rng):
        scheme = ShamirScheme(field, degree=3)
        with pytest.raises(SecretSharingError):
            scheme.split(42, points=[1, 2, 3], rng=rng)

    def test_duplicate_points_rejected(self, field, rng):
        scheme = ShamirScheme(field, degree=1)
        with pytest.raises(SecretSharingError):
            scheme.split(42, points=[1, 1], rng=rng)

    def test_zero_point_rejected(self, field, rng):
        scheme = ShamirScheme(field, degree=1)
        with pytest.raises(SecretSharingError):
            scheme.split(42, points=[0, 1], rng=rng)

    def test_degree_zero_shares_equal_secret(self, field, rng):
        # Degree 0 means no privacy: every share IS the secret.
        scheme = ShamirScheme(field, degree=0)
        shares = scheme.split(42, points=[1, 2, 3], rng=rng)
        assert all(s.y.value == 42 for s in shares)


class TestReconstruct:
    def test_roundtrip(self, field, rng):
        scheme = ShamirScheme(field, degree=3)
        shares = scheme.split(123456, points=range(1, 10), rng=rng)
        assert scheme.reconstruct(shares).value == 123456

    def test_any_threshold_subset_works(self, field, rng):
        scheme = ShamirScheme(field, degree=3)
        shares = scheme.split(98765, points=range(1, 10), rng=rng)
        for _ in range(10):
            subset = rng.sample(shares, scheme.threshold)
            assert scheme.reconstruct(subset).value == 98765

    def test_too_few_shares_rejected(self, field, rng):
        scheme = ShamirScheme(field, degree=3)
        shares = scheme.split(42, points=range(1, 10), rng=rng)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct(shares[:3])

    def test_duplicate_share_rejected(self, field, rng):
        scheme = ShamirScheme(field, degree=1)
        shares = scheme.split(42, points=[1, 2], rng=rng)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct([shares[0], shares[0]])

    def test_secret_reduced_mod_p(self, tiny_field, rng):
        scheme = ShamirScheme(tiny_field, degree=1)
        shares = scheme.split(100, points=[1, 2, 3], rng=rng)
        assert scheme.reconstruct(shares).value == 3

    def test_wrong_field_share_rejected(self, field, tiny_field, rng):
        scheme = ShamirScheme(field, degree=0)
        alien = Share(dealer_id=0, x=tiny_field(1), y=tiny_field(2))
        with pytest.raises(ReconstructionError):
            scheme.reconstruct([alien])


class TestReconstructPolynomial:
    def test_recovers_dealer_polynomial(self, field):
        rng = random.Random(5)
        scheme = ShamirScheme(field, degree=4)
        polynomial = scheme.deal_polynomial(777, rng)
        shares = [
            Share(dealer_id=0, x=field(x), y=polynomial(x)) for x in range(1, 6)
        ]
        points = [(share.x, share.y) for share in shares]
        assert interpolate_polynomial(field, points) == polynomial

    def test_inconsistent_shares_detected(self, field, rng):
        scheme = ShamirScheme(field, degree=1)
        shares = scheme.split(42, points=[1, 2, 3, 4], rng=rng)
        # Corrupt one share: the 4 points no longer lie on a degree-1 line.
        corrupted = Share(
            dealer_id=0, x=shares[0].x, y=shares[0].y + field(1)
        )
        # Every threshold-sized subset reconstructs; a corrupted share
        # moves the secret, which the full interpolation exposes as a
        # polynomial above the scheme's degree.
        tampered = [corrupted] + list(shares[1:])
        points = [(share.x, share.y) for share in tampered]
        assert interpolate_polynomial(field, points).degree > scheme.degree
        assert scheme.reconstruct(tampered) != scheme.reconstruct(list(shares))


class TestShareValidation:
    def test_share_at_zero_rejected(self, field):
        with pytest.raises(SecretSharingError):
            Share(dealer_id=0, x=field(0), y=field(1))

    def test_negative_dealer_rejected(self, field):
        with pytest.raises(SecretSharingError):
            Share(dealer_id=-1, x=field(1), y=field(1))

    def test_mixed_field_share_rejected(self, field, tiny_field):
        with pytest.raises(SecretSharingError):
            Share(dealer_id=0, x=field(1), y=tiny_field(1))

    def test_point_accessor(self, field):
        share = Share(dealer_id=0, x=field(1), y=field(9))
        assert share.point == (field(1), field(9))

    def test_to_bytes(self, field):
        share = Share(dealer_id=0, x=field(1), y=field(9))
        assert share.to_bytes() == field(9).to_bytes()
