"""Protocol configuration objects.

A :class:`ProtocolConfig` holds everything S3 and S4 share — field,
polynomial degree, crypto settings, radio/capture models.  The
variant-specific knobs live in :class:`S3Config` / :class:`S4Config`,
each with a ``for_testbed`` constructor that applies the paper's
evaluation parameters (degree ⌊n/3⌋, NTX 6/5 for S4's sharing phase, the
over-provisioned full-coverage NTX for S3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field

from repro.errors import ConfigurationError
from repro.field.prime_field import DEFAULT_PRIME, PrimeField
from repro.phy.capture import CaptureModel
from repro.phy.radio import NRF52840_154, RadioTimings
from repro.topology.testbeds import TestbedSpec


class CryptoMode(enum.Enum):
    """How sharing-phase payloads are protected in simulation.

    ``REAL`` runs the full data path — AES-128-CTR encryption and
    truncated CBC-MAC per (source, destination) packet under pairwise
    keys — exactly what the nRF52840 does in hardware.  ``STUB`` replaces
    the cipher with a reversible tagging scheme; the chain layout, packet
    sizes and timing are identical, so the paper's *metrics* are
    unaffected while large parameter sweeps run an order of magnitude
    faster.  Tests cover both; benchmarks default to ``STUB`` and the
    crypto-fidelity suite pins REAL ≡ STUB metric equality.
    """

    REAL = "real"
    STUB = "stub"


@dataclass(frozen=True)
class ProtocolConfig:
    """Settings shared by both protocol variants.

    Attributes:
        degree: Shamir polynomial degree p (collusion threshold).
        prime: field modulus.
        master_secret: key-derivation root for pairwise keys.
        crypto_mode: REAL or STUB packet protection.
        timings: radio timing model.
        capture: concurrent-reception model.
        tx_probability: per-slot transmit probability of armed nodes.
        slack_slots: scheduling slack added to analytic round lengths.
        mac_tag_bytes: truncated MAC tag size carried by share packets,
            1 to 16 bytes.
    """

    degree: int
    prime: int = DEFAULT_PRIME
    master_secret: bytes = b"repro-network-master"
    crypto_mode: CryptoMode = CryptoMode.REAL
    timings: RadioTimings = NRF52840_154
    capture: CaptureModel = dataclass_field(default_factory=CaptureModel)
    tx_probability: float = 0.5
    slack_slots: int = 3
    mac_tag_bytes: int = 4

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigurationError(
                f"degree must be >= 1 for any privacy, got {self.degree}"
            )
        if not 0.0 < self.tx_probability <= 1.0:
            raise ConfigurationError(
                f"tx_probability must be in (0, 1], got {self.tx_probability}"
            )
        if self.slack_slots < 0:
            raise ConfigurationError(
                f"slack_slots must be >= 0, got {self.slack_slots}"
            )
        if not 1 <= self.mac_tag_bytes <= 16:
            raise ConfigurationError(
                f"mac_tag_bytes must be in [1, 16], got {self.mac_tag_bytes}"
            )

    @property
    def field(self) -> PrimeField:
        """The prime field instance (interned by modulus)."""
        return PrimeField(self.prime)

    @property
    def threshold(self) -> int:
        """Shares needed to reconstruct: degree + 1."""
        return self.degree + 1


@dataclass(frozen=True)
class S3Config:
    """Naive variant: one conservative NTX for both phases.

    Attributes:
        base: shared protocol settings.
        ntx: the over-provisioned full-coverage NTX used throughout.
    """

    base: ProtocolConfig
    ntx: int

    def __post_init__(self) -> None:
        if self.ntx < 1:
            raise ConfigurationError(f"ntx must be >= 1, got {self.ntx}")

    @classmethod
    def for_testbed(
        cls, spec: TestbedSpec, crypto_mode: CryptoMode = CryptoMode.REAL
    ) -> "S3Config":
        """The paper's S3 parameters on the given testbed."""
        base = ProtocolConfig(
            degree=spec.polynomial_degree, crypto_mode=crypto_mode
        )
        return cls(base=base, ntx=spec.full_coverage_ntx)


@dataclass(frozen=True)
class S4Config:
    """Scalable variant: trimmed chain, low NTX, truncated schedule.

    Attributes:
        base: shared protocol settings.
        sharing_ntx: the low, bootstrap-profiled NTX of the sharing phase
            (6 on FlockLab, 5 on DCube per the paper).
        reconstruction_ntx: NTX of the network-wide reconstruction flood.
        collector_redundancy: collectors beyond the required degree + 1
            (fault-tolerance headroom).
        collector_threshold: minimum bootstrap-measured delivery
            probability a node must offer every source to be electable.
        completion_quantile: quantile of bootstrap-measured collector
            completion slots used to truncate the sharing schedule.
        sharing_slack_slots: slack added after the completion quantile.
        bootstrap_iterations: probe rounds used by the bootstrap phase.
        bootstrap_seed: RNG seed of the bootstrap phase.
    """

    base: ProtocolConfig
    sharing_ntx: int
    reconstruction_ntx: int
    collector_redundancy: int = 1
    collector_threshold: float = 0.9
    completion_quantile: float = 0.95
    sharing_slack_slots: int = 2
    bootstrap_iterations: int = 20
    bootstrap_seed: int = 0xB007

    def __post_init__(self) -> None:
        if self.sharing_ntx < 1 or self.reconstruction_ntx < 1:
            raise ConfigurationError("NTX values must be >= 1")
        if self.collector_redundancy < 0:
            raise ConfigurationError(
                f"collector_redundancy must be >= 0, got {self.collector_redundancy}"
            )
        if not 0.0 < self.completion_quantile <= 1.0:
            raise ConfigurationError(
                f"completion_quantile must be in (0, 1], got "
                f"{self.completion_quantile}"
            )
        if self.bootstrap_iterations < 1:
            raise ConfigurationError(
                f"bootstrap_iterations must be >= 1, got {self.bootstrap_iterations}"
            )

    @property
    def num_collectors(self) -> int:
        """m = degree + 1 + redundancy."""
        return self.base.degree + 1 + self.collector_redundancy

    @classmethod
    def for_testbed(
        cls, spec: TestbedSpec, crypto_mode: CryptoMode = CryptoMode.REAL
    ) -> "S4Config":
        """The paper's S4 parameters on the given testbed.

        The sharing NTX and collector redundancy come from the testbed's
        calibration (``spec.extras``) when present: the paper profiled
        "enough" NTX values on its physical testbeds, and our synthetic
        channels need their own profiled operating point (documented in
        EXPERIMENTS.md).
        """
        base = ProtocolConfig(
            degree=spec.polynomial_degree, crypto_mode=crypto_mode
        )
        return cls(
            base=base,
            sharing_ntx=spec.extras.get("s4_sharing_ntx", spec.sharing_ntx),
            reconstruction_ntx=spec.full_coverage_ntx,
            collector_redundancy=spec.extras.get("s4_redundancy", 1),
        )
