"""Tests for protocol configuration objects."""

from __future__ import annotations

import pytest

from repro.core.config import CryptoMode, ProtocolConfig, S3Config, S4Config
from repro.errors import ConfigurationError
from repro.field import MERSENNE_61, PrimeField
from repro.topology.testbeds import dcube, flocklab


class TestProtocolConfig:
    def test_defaults(self):
        config = ProtocolConfig(degree=5)
        assert config.prime == MERSENNE_61
        assert config.field is PrimeField(MERSENNE_61)
        assert config.threshold == 6
        assert config.crypto_mode is CryptoMode.REAL

    def test_degree_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(degree=0)

    def test_bad_tx_probability(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(degree=1, tx_probability=0.0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(degree=1, tx_probability=1.5)

    def test_bad_slack(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(degree=1, slack_slots=-1)

    @pytest.mark.parametrize("tag_bytes", [0, 17, 20])
    def test_mac_tag_bytes_outside_one_block_rejected(self, tag_bytes):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(degree=1, mac_tag_bytes=tag_bytes)

    @pytest.mark.parametrize("tag_bytes", [1, 16])
    def test_mac_tag_bytes_bounds_accepted(self, tag_bytes):
        assert ProtocolConfig(degree=1, mac_tag_bytes=tag_bytes).mac_tag_bytes == tag_bytes


class TestS3Config:
    def test_for_testbed_uses_paper_values(self):
        spec = flocklab()
        config = S3Config.for_testbed(spec)
        assert config.ntx == spec.full_coverage_ntx
        assert config.base.degree == 8

    def test_bad_ntx(self):
        with pytest.raises(ConfigurationError):
            S3Config(base=ProtocolConfig(degree=1), ntx=0)


class TestS4Config:
    def test_for_testbed_uses_calibrated_point(self):
        spec = dcube()
        config = S4Config.for_testbed(spec)
        assert config.sharing_ntx == spec.extras["s4_sharing_ntx"]
        assert config.collector_redundancy == spec.extras["s4_redundancy"]
        assert config.base.degree == 15

    def test_num_collectors(self):
        config = S4Config(
            base=ProtocolConfig(degree=4),
            sharing_ntx=5,
            reconstruction_ntx=10,
            collector_redundancy=2,
        )
        assert config.num_collectors == 7  # 4 + 1 + 2

    def test_validation(self):
        base = ProtocolConfig(degree=2)
        with pytest.raises(ConfigurationError):
            S4Config(base=base, sharing_ntx=0, reconstruction_ntx=5)
        with pytest.raises(ConfigurationError):
            S4Config(
                base=base,
                sharing_ntx=5,
                reconstruction_ntx=5,
                collector_redundancy=-1,
            )
        with pytest.raises(ConfigurationError):
            S4Config(
                base=base,
                sharing_ntx=5,
                reconstruction_ntx=5,
                completion_quantile=0.0,
            )
        with pytest.raises(ConfigurationError):
            S4Config(
                base=base,
                sharing_ntx=5,
                reconstruction_ntx=5,
                bootstrap_iterations=0,
            )
