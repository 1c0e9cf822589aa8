"""repro — Multi-Party Computation in IoT for Privacy-Preservation.

A full reproduction of Goyal & Saha (ICDCS 2022): Shamir Secret Sharing
based privacy-preserving data aggregation running over concurrent-
transmission (Glossy / MiniCast) communication, evaluated on simulated
nRF52840 testbeds.

Quickstart::

    from repro import S4Engine, S4Config, CryptoMode, flocklab

    spec = flocklab()
    engine = S4Engine.for_testbed(spec)
    secrets = {node: 20 + node for node in spec.topology.node_ids}
    metrics = engine.run(secrets, seed=1)
    print(metrics.per_node[0].aggregate, metrics.expected_aggregate)

Layer map (bottom-up): :mod:`repro.field` → :mod:`repro.crypto` →
:mod:`repro.sss` (pure algorithms); :mod:`repro.phy` →
:mod:`repro.topology` → :mod:`repro.sim` → :mod:`repro.ct` (wireless
substrate); :mod:`repro.core` (the paper's S3/S4), :mod:`repro.privacy`,
:mod:`repro.analysis`, :mod:`repro.cli` (evaluation).
"""

from repro.core import (
    CryptoMode,
    NodeMetrics,
    ProtocolConfig,
    RoundMetrics,
    S3Config,
    S3Engine,
    S4Config,
    S4Engine,
)
from repro.errors import ReproError
from repro.field import MERSENNE_61, MERSENNE_127, PrimeField
from repro.sss import ShamirScheme
from repro.topology.testbeds import TestbedSpec, dcube, flocklab, testbed_by_name

__version__ = "0.2.0"

__all__ = [
    "CryptoMode",
    "ProtocolConfig",
    "S3Config",
    "S4Config",
    "S3Engine",
    "S4Engine",
    "NodeMetrics",
    "RoundMetrics",
    "ReproError",
    "PrimeField",
    "MERSENNE_61",
    "MERSENNE_127",
    "ShamirScheme",
    "TestbedSpec",
    "flocklab",
    "dcube",
    "testbed_by_name",
    "__version__",
]
