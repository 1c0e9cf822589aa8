"""Tests for the propagation and PRR models."""

from __future__ import annotations


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.phy.channel import ChannelModel, ChannelParameters, _pair_gaussian


def flat_channel(**overrides) -> ChannelModel:
    """A channel with no shadowing for deterministic curve tests."""
    params = dict(
        tx_power_dbm=0.0,
        path_loss_exponent=3.0,
        reference_loss_db=40.0,
        shadowing_sigma_db=0.0,
        noise_floor_dbm=-96.0,
    )
    params.update(overrides)
    return ChannelModel(ChannelParameters(**params))


class TestPathLoss:
    def test_reference_distance(self):
        ch = flat_channel()
        assert ch.path_loss_db(1.0, 0, 1) == pytest.approx(40.0)

    def test_decade_adds_10eta(self):
        ch = flat_channel()
        assert ch.path_loss_db(10.0, 0, 1) == pytest.approx(70.0)
        assert ch.path_loss_db(100.0, 0, 1) == pytest.approx(100.0)

    def test_below_reference_clamped(self):
        ch = flat_channel()
        assert ch.path_loss_db(0.1, 0, 1) == pytest.approx(40.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_channel().path_loss_db(-1.0, 0, 1)

    def test_rssi_is_tx_minus_loss(self):
        ch = flat_channel()
        assert ch.rssi_dbm(10.0, 0, 1) == pytest.approx(-70.0)

    def test_shadowing_is_symmetric(self):
        ch = ChannelModel(ChannelParameters(shadowing_sigma_db=4.0))
        assert ch.path_loss_db(10.0, 3, 7) == ch.path_loss_db(10.0, 7, 3)

    def test_shadowing_differs_between_pairs(self):
        ch = ChannelModel(ChannelParameters(shadowing_sigma_db=4.0))
        assert ch.path_loss_db(10.0, 1, 2) != ch.path_loss_db(10.0, 1, 3)

    def test_shadowing_reproducible(self):
        a = ChannelModel(ChannelParameters(shadowing_sigma_db=4.0, shadowing_seed=9))
        b = ChannelModel(ChannelParameters(shadowing_sigma_db=4.0, shadowing_seed=9))
        assert a.path_loss_db(10.0, 1, 2) == b.path_loss_db(10.0, 1, 2)

    def test_shadowing_seed_changes_realization(self):
        a = ChannelModel(ChannelParameters(shadowing_sigma_db=4.0, shadowing_seed=1))
        b = ChannelModel(ChannelParameters(shadowing_sigma_db=4.0, shadowing_seed=2))
        assert a.path_loss_db(10.0, 1, 2) != b.path_loss_db(10.0, 1, 2)


class TestPairGaussian:
    def test_roughly_standard_normal(self):
        draws = [_pair_gaussian(0, a, b) for a in range(40) for b in range(a + 1, 40)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean) < 0.1
        assert abs(var - 1.0) < 0.15

    def test_symmetry(self):
        assert _pair_gaussian(0, 3, 9) == _pair_gaussian(0, 9, 3)


class TestBer:
    def test_monotone_decreasing_in_snr(self):
        bers = [ChannelModel.bit_error_rate(snr) for snr in range(-10, 20)]
        assert all(a >= b for a, b in zip(bers, bers[1:]))

    def test_high_snr_negligible(self):
        assert ChannelModel.bit_error_rate(20.0) < 1e-12

    def test_low_snr_near_half(self):
        assert ChannelModel.bit_error_rate(-20.0) > 0.4

    def test_bounded(self):
        for snr in (-50, -5, 0, 5, 50):
            ber = ChannelModel.bit_error_rate(snr)
            assert 0.0 <= ber <= 0.5


class TestPrr:
    def test_transitional_region_exists(self):
        # The hallmark of the Zuniga model: PRR goes ~0 to ~1 within a
        # few dB of SNR (the transition sits around -3..+1 dB here).
        ch = flat_channel()
        low = ch.prr(-96 - 4.0, 29)   # -4 dB SNR
        high = ch.prr(-96 + 2.0, 29)  # +2 dB SNR
        assert low < 0.05
        assert high > 0.95

    def test_monotone_in_rssi(self):
        ch = flat_channel()
        prrs = [ch.prr(-96 + snr, 29) for snr in range(-10, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(prrs, prrs[1:]))

    def test_longer_frames_lose_more(self):
        ch = flat_channel()
        rssi = -96 + 5.0
        assert ch.prr(rssi, 120) < ch.prr(rssi, 20)

    def test_bad_frame_size_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_channel().prr(-70, 0)

    def test_perfect_at_huge_snr(self):
        assert flat_channel().prr(0.0, 29) == pytest.approx(1.0)

    def test_link_prr_combines_distance(self):
        ch = flat_channel()
        near = ch.prr(ch.rssi_dbm(5.0, 0, 1), 29)
        far = ch.prr(ch.rssi_dbm(150.0, 0, 1), 29)
        assert near > 0.99
        assert far < 0.01

    @given(snr=st.floats(min_value=-30, max_value=30))
    def test_prr_in_unit_interval(self, snr):
        prr = flat_channel().prr(-96 + snr, 29)
        assert 0.0 <= prr <= 1.0


class TestParameterValidation:
    def test_bad_exponent(self):
        with pytest.raises(ConfigurationError):
            ChannelParameters(path_loss_exponent=0.0)

    def test_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            ChannelParameters(shadowing_sigma_db=-1.0)

    def test_repr(self):
        assert "eta=3.0" in repr(ChannelModel(ChannelParameters()))
