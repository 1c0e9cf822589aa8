"""Tests for the semi-honest coalition adversary."""

from __future__ import annotations


import pytest

from repro.errors import SecretSharingError
from repro.privacy.adversary import Coalition
from repro.privacy.analysis import guess_secret_from_view, run_protocol_coalition_experiment
from repro.sss import ShamirScheme


class TestCoalition:
    def test_membership(self):
        coalition = Coalition([3, 1, 7])
        assert coalition.size == 3
        assert 3 in coalition
        assert 2 not in coalition

    def test_threshold_check(self):
        coalition = Coalition(range(5))
        assert coalition.breaches_threshold(4)
        assert not coalition.breaches_threshold(5)

    def test_empty_rejected(self):
        with pytest.raises(SecretSharingError):
            Coalition([])

    def test_negative_rejected(self):
        with pytest.raises(SecretSharingError):
            Coalition([-1])

    def test_repr(self):
        assert "[1, 2]" in repr(Coalition([2, 1]))


class TestObservation:
    def test_pools_only_member_shares(self):
        # S3 deals every node a share, so a coalition pools exactly one
        # share per dealer per member, and nothing it was not sent.
        from repro.core.config import CryptoMode, ProtocolConfig, S3Config
        from repro.core.s3 import S3Engine
        from tests.core.conftest import small_spec_parts

        topology, channel = small_spec_parts()
        config = S3Config(base=ProtocolConfig(degree=2, crypto_mode=CryptoMode.STUB), ntx=6)
        engine = S3Engine(topology, channel, config)
        secrets = {node: 10 + node for node in topology.node_ids}
        outcome = run_protocol_coalition_experiment(engine, secrets, [0, 2], seed=1)
        assert outcome["shares_per_dealer"] == {dealer: 2 for dealer in secrets}
        assert outcome["recovered_secrets"] == {}


class TestReconstructionAttempts:
    """What a coalition's pooled shares of one dealer give away."""

    def test_below_threshold_returns_none(self, field, rng):
        scheme = ShamirScheme(field, degree=3)
        shares = scheme.split(777, points=range(1, 10), rng=rng, dealer_id=0)
        pooled = [(s.x, s.y) for s in shares[:3]]  # 3 shares < 4 needed
        assert guess_secret_from_view(field, 3, pooled) is None

    def test_above_threshold_recovers(self, field, rng):
        scheme = ShamirScheme(field, degree=3)
        shares = scheme.split(777, points=range(1, 10), rng=rng, dealer_id=0)
        pooled = [(s.x, s.y) for s in shares[:4]]
        assert guess_secret_from_view(field, 3, pooled) == 777

    def test_unknown_dealer(self, field):
        # A dealer none of whose shares reached the coalition.
        assert guess_secret_from_view(field, 2, []) is None
