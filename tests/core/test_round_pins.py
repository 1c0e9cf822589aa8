"""Literal pins of whole rounds, on both values of the fast-path flag.

Each case runs one round on the 3x3 ``small_network`` deployment and
hashes a canonical form of its :class:`RoundMetrics`: every field of the
round and of each :class:`NodeMetrics`, with sets and dict items sorted
so that the order a contributor set was built in cannot show.  The
reference MiniCast loop is only distribution-identical to the fast one,
so each flag value has its own digests.

The failure cases kill source 2 at chain slot 1, after some but not
all collectors heard it, so the sum packets carry different contributor
sets and reconstruction has to pick a consistent group.

The file also holds the flag's contract: with the fast path off, a
protocol round never asks :mod:`repro.native` for a kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import fastpath, native
from repro.core import protocol
from repro.core.config import CryptoMode, ProtocolConfig, S3Config, S4Config
from repro.core.s3 import S3Engine
from repro.core.s4 import S4Engine


def build_engine(variant: str, mode: CryptoMode, small_network):
    topology, channel = small_network
    base = ProtocolConfig(degree=2, crypto_mode=mode)
    if variant == "S3":
        return S3Engine(topology, channel, S3Config(base=base, ntx=6))
    config = S4Config(
        base=base,
        sharing_ntx=4,
        reconstruction_ntx=6,
        collector_redundancy=1,
        bootstrap_iterations=8,
    )
    return S4Engine(topology, channel, config)


def canonical(value):
    """A JSON-ready form of ``value`` that no build order can change."""
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return sorted((key, canonical(item)) for key, item in value.items())
    return value


def digest(metrics) -> str:
    text = json.dumps(canonical(metrics), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_round(small_network, fast, variant, mode, seed, failures=None):
    topology, _ = small_network
    secrets = {node: 10 + node for node in topology.node_ids}
    with fastpath.forced(fast):
        engine = build_engine(variant, mode, small_network)
        return engine.run(secrets, seed=seed, sharing_failures=failures)


PINS = {
    (False, 'S3', 'REAL', 1, None): "4ae0ea51aadeb0ca5b2b1f00fda96772a1d109b6800b221894234a5b4fdda411",
    (False, 'S3', 'REAL', 2, None): "9198f4f689212454462448b2ccad57eb238cab34132e59402bbc4e4fd532ae0d",
    (False, 'S3', 'REAL', 3, None): "1e4ee65b29263962c4ed741b60c4372dec663393b2ad8442b2f04b1041e19267",
    (False, 'S4', 'REAL', 1, None): "032f1d89636b0d7155a1b1555a8911cb436bd7455068cde2995db51cd25a99eb",
    (False, 'S4', 'REAL', 2, None): "d780ea5b4e1059660b38165a88a69a5a2936ec729dcb5713e0161a3e335f2913",
    (False, 'S4', 'REAL', 3, None): "0f307b6ed611c09ffdecf75fc99b354c9a8c4e4a78e30a67b114a97ed53e68aa",
    (False, 'S4', 'STUB', 1, None): "032f1d89636b0d7155a1b1555a8911cb436bd7455068cde2995db51cd25a99eb",
    (False, 'S4', 'STUB', 2, None): "d780ea5b4e1059660b38165a88a69a5a2936ec729dcb5713e0161a3e335f2913",
    (False, 'S4', 'STUB', 3, None): "0f307b6ed611c09ffdecf75fc99b354c9a8c4e4a78e30a67b114a97ed53e68aa",
    (False, 'S4', 'REAL', 4, 2): "6d083afef6ef93827c3b8314b4aa1a0f6ac69aac7be1dc81a10b23ee57abcac4",
    (False, 'S4', 'REAL', 2, 2): "81fd391c3f2d6666e918d019a7b7c8a7c45b2b765354ff35a55b21d951cea348",
    (True, 'S3', 'REAL', 1, None): "bafcd886a0a2b759fef5e66366441d765ea02202e400a37df368223be3891636",
    (True, 'S3', 'REAL', 2, None): "417b280b5e23767fde6cc7a3ef27ceb8911a76ef61c4f3d778ae362b28f36ee8",
    (True, 'S3', 'REAL', 3, None): "a25d57e5c53c4fec1a0376e2dda543d207e508813fceadb6f56aeac285b2178c",
    (True, 'S4', 'REAL', 1, None): "2a9b7072b5d5e05312c24eb0889996d46bebd7388af4c566742db1dfce00bf24",
    (True, 'S4', 'REAL', 2, None): "a8436e7c7e0c2332281df3b3cf691127f2ab474d208ce7f1b94152ce0f793cde",
    (True, 'S4', 'REAL', 3, None): "7f76e5ea9f3c78ec50cd0d4b6b9bbde7352dcad9285fd4b035d077441a10b9fd",
    (True, 'S4', 'STUB', 1, None): "2a9b7072b5d5e05312c24eb0889996d46bebd7388af4c566742db1dfce00bf24",
    (True, 'S4', 'STUB', 2, None): "a8436e7c7e0c2332281df3b3cf691127f2ab474d208ce7f1b94152ce0f793cde",
    (True, 'S4', 'STUB', 3, None): "7f76e5ea9f3c78ec50cd0d4b6b9bbde7352dcad9285fd4b035d077441a10b9fd",
    (True, 'S4', 'REAL', 4, 2): "884535c67f37923d0349a409f628d7d7d52387536f0a781eeb42a4671982711d",
    (True, 'S4', 'REAL', 2, 2): "c09b41b79e00db2b08cba1ee47c3f0a488ba69b1db023eb999b300a95aff4bfc",
}


@pytest.mark.parametrize(
    "case", sorted(PINS, key=repr), ids=lambda case: "-".join(map(str, case))
)
def test_round_is_pinned(small_network, case):
    fast, variant, mode, seed, failed_source = case
    failures = None if failed_source is None else {failed_source: 1}
    metrics = run_round(small_network, fast, variant, CryptoMode[mode], seed, failures)
    assert digest(metrics) == PINS[case]


@pytest.mark.parametrize("fast, seed, source", [(False, 4, 2), (True, 2, 2)])
def test_failure_cases_split_the_collectors(monkeypatch, small_network, fast, seed, source):
    # Under its own flag value, each failure case is the one where the
    # collectors' sum packets disagree on who contributed.
    bitmaps = []
    encode = protocol.encode_sum_packet

    def spy(*args, **kwargs):
        packet = encode(*args, **kwargs)
        bitmaps.append(packet[kwargs["element_size"] :])
        return packet

    monkeypatch.setattr(protocol, "encode_sum_packet", spy)
    run_round(small_network, fast, "S4", CryptoMode.REAL, seed, {source: 1})
    assert len(set(bitmaps)) > 1


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = native.kernel

    def spy(name, signature):
        calls.append(name)
        return kernel(name, signature)

    monkeypatch.setattr(native, "kernel", spy)
    return calls


@pytest.mark.parametrize("variant", ["S3", "S4"])
@pytest.mark.parametrize("mode", [CryptoMode.REAL, CryptoMode.STUB])
def test_reference_round_asks_for_no_kernel(small_network, kernel_calls, variant, mode):
    run_round(small_network, False, variant, mode, seed=1)
    assert kernel_calls == []
    if native.library() is not None:
        # The spy sees what a fast round asks for.
        run_round(small_network, True, variant, mode, seed=1)
        assert kernel_calls
