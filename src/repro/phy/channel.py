"""Wireless channel model: path loss, shadowing, and PRR.

Two well-established components:

* **Log-distance path loss with log-normal shadowing** — the standard
  indoor propagation model.  Shadowing is *frozen per link* (symmetric in
  the node pair) at construction time, because walls do not move between
  iterations; fast fading is left to the per-packet PRR draw.

* **Zuniga-Krishnamachari PRR model** ("Analyzing the transitional region
  in low power wireless links", SECON 2004) — the closed-form mapping from
  SNR and frame length to packet reception ratio for 802.15.4's O-QPSK /
  DSSS modulation.  This is what gives CT simulations their characteristic
  connected / transitional / disconnected link regions, which in turn
  produce MiniCast's non-linear coverage-vs-NTX behaviour that S4 exploits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class ChannelParameters:
    """Propagation and radio-front-end parameters.

    Attributes:
        tx_power_dbm: transmit power (nRF52840 default 0 dBm).
        path_loss_exponent: log-distance exponent; ~3.0 for indoor office.
        reference_loss_db: path loss at the 1 m reference distance
            (≈40 dB at 2.4 GHz free space).
        shadowing_sigma_db: std-dev of per-link log-normal shadowing.
        noise_floor_dbm: thermal noise + receiver noise figure.
        shadowing_seed: seed from which per-link shadowing is derived.
    """

    tx_power_dbm: float = 0.0
    path_loss_exponent: float = 3.0
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 3.0
    noise_floor_dbm: float = -96.0
    shadowing_seed: int = 1

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0:
            raise ConfigurationError(
                f"path_loss_exponent must be > 0, got {self.path_loss_exponent}"
            )
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError(
                f"shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db}"
            )


def _pair_gaussian(seed: int, node_a: int, node_b: int) -> float:
    """Deterministic standard-normal draw for an unordered node pair.

    Box-Muller over two uniform values extracted from a SHA-256 of the
    canonical pair encoding — stable across runs and platforms, symmetric
    in the pair.
    """
    low, high = sorted((node_a, node_b))
    material = f"shadow|{seed}|{low}|{high}".encode()
    digest = hashlib.sha256(material).digest()
    u1 = (int.from_bytes(digest[:8], "big") + 1) / (2**64 + 1)
    u2 = int.from_bytes(digest[8:16], "big") / 2**64
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class ChannelModel:
    """Maps link geometry to RSSI and packet reception probability."""

    __slots__ = ("_params",)

    def __init__(self, params: ChannelParameters | None = None):
        self._params = params or ChannelParameters()

    @property
    def params(self) -> ChannelParameters:
        """The channel parameters in force."""
        return self._params

    # -- propagation ---------------------------------------------------------

    def path_loss_db(self, distance_m: float, node_a: int, node_b: int) -> float:
        """Log-distance path loss with frozen per-link shadowing."""
        if distance_m < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance_m}")
        # Clamp below the reference distance: the model is not valid there
        # and nodes are never co-located in practice.
        distance_m = max(distance_m, 1.0)
        params = self._params
        shadow = (
            params.shadowing_sigma_db
            * _pair_gaussian(params.shadowing_seed, node_a, node_b)
        )
        return (
            params.reference_loss_db
            + 10.0 * params.path_loss_exponent * math.log10(distance_m)
            + shadow
        )

    def rssi_dbm(self, distance_m: float, node_a: int, node_b: int) -> float:
        """Received signal strength for a transmission over this link."""
        return self._params.tx_power_dbm - self.path_loss_db(
            distance_m, node_a, node_b
        )

    def snr_db(self, rssi_dbm: float) -> float:
        """Signal-to-noise ratio against the configured noise floor."""
        return rssi_dbm - self._params.noise_floor_dbm

    # -- reception ------------------------------------------------------------

    #: Precomputed series terms ((-1)^k * C(16, k), 1/k - 1) for k = 2..16.
    #: Hoisting the binomials out of the per-link loop is float-exact: the
    #: multiplication order below matches the inline expression.
    _BER_TERMS = tuple(
        ((-1.0) ** k * math.comb(16, k), 1.0 / k - 1.0) for k in range(2, 17)
    )

    @staticmethod
    def bit_error_rate(snr_db: float) -> float:
        """BER of 802.15.4 O-QPSK/DSSS at the given SNR.

        Zuniga-Krishnamachari closed form:

            BER = (8/15) * (1/16) * sum_{k=2}^{16} (-1)^k C(16,k)
                  * exp(20 * SNR_linear * (1/k - 1))
        """
        snr_linear = 10.0 ** (snr_db / 10.0)
        scale = 20.0 * snr_linear
        total = 0.0
        for coefficient, exponent_factor in ChannelModel._BER_TERMS:
            total += coefficient * math.exp(scale * exponent_factor)
        ber = (8.0 / 15.0) * (1.0 / 16.0) * total
        # Numerical guard: the series is mathematically within [0, 0.5].
        return min(max(ber, 0.0), 0.5)

    def prr(self, rssi_dbm: float, frame_bytes: int) -> float:
        """Packet reception ratio for a frame of ``frame_bytes`` bytes.

        ``(1 - BER)^(8 * frame_bytes)`` per the same model; ``frame_bytes``
        should include PHY overhead since preamble loss kills the packet
        too.
        """
        if frame_bytes <= 0:
            raise ConfigurationError(f"frame_bytes must be >= 1, got {frame_bytes}")
        ber = self.bit_error_rate(self.snr_db(rssi_dbm))
        if ber == 0.0:
            return 1.0
        return (1.0 - ber) ** (8 * frame_bytes)

    def __repr__(self) -> str:
        p = self._params
        return (
            f"ChannelModel(eta={p.path_loss_exponent}, "
            f"sigma={p.shadowing_sigma_db} dB, noise={p.noise_floor_dbm} dBm)"
        )
