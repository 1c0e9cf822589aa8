"""Whole REAL rounds: the lane pipeline against the per-packet codec path.

With numpy, a fast-path REAL round protects its shares as lanes
(:func:`repro.core.payload.batch_encrypt_shares`).  With the batch
backend switched off, the same fast branch runs ``encrypt_share`` /
``decrypt_share`` per packet over the same MiniCast stream.  Both must
report identical round metrics, and a forged tag must cost exactly one
share of one destination.
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.core import protocol
from repro.core.config import S4Config
from repro.core.s4 import S4Engine

aesbatch = pytest.importorskip("repro.crypto.aesbatch")
if not aesbatch.HAVE_NUMPY:  # pragma: no cover
    pytest.skip("numpy unavailable", allow_module_level=True)


@pytest.fixture
def engine(small_network, base_config):
    topology, channel = small_network
    config = S4Config(
        base=base_config,
        sharing_ntx=4,
        reconstruction_ntx=6,
        collector_redundancy=1,
        bootstrap_iterations=8,
    )
    with fastpath.forced(True):
        yield S4Engine(topology, channel, config)


@pytest.fixture
def lane_calls(monkeypatch):
    """Count the lane-pipeline calls the protocol makes."""
    calls = []
    encrypt = protocol.batch_encrypt_shares

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return encrypt(*args, **kwargs)

    monkeypatch.setattr(protocol, "batch_encrypt_shares", spy)
    return calls


def per_packet_run(monkeypatch, engine, secrets, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_batch_crypto_available", lambda: False)
        return engine.run(secrets, **kwargs)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lanes_match_per_packet_codec(monkeypatch, engine, secrets, lane_calls, seed):
    lanes = engine.run(secrets, seed=seed)
    assert lane_calls, "the round did not take the lane pipeline"
    calls = len(lane_calls)
    assert per_packet_run(monkeypatch, engine, secrets, seed=seed) == lanes
    assert len(lane_calls) == calls  # the per-packet run made no lane call


def test_lanes_match_per_packet_codec_with_sharing_failure(
    monkeypatch, engine, secrets, lane_calls
):
    collector = engine.bootstrap_for(sorted(secrets)).collectors[0]
    failures = {collector: 1}
    lanes = engine.run(secrets, seed=11, sharing_failures=failures)
    assert lane_calls and lanes.failures
    assert per_packet_run(
        monkeypatch, engine, secrets, seed=11, sharing_failures=failures
    ) == lanes


def test_forged_tag_drops_one_share_of_one_destination(monkeypatch, engine, secrets):
    decrypted = []
    decrypt = protocol.batch_decrypt_values

    def record(lanes, sealed, field, round_nonce):
        values = decrypt(lanes, sealed, field, round_nonce)
        decrypted.append(dict(zip(lanes.tolist(), values)))
        return values

    monkeypatch.setattr(protocol, "batch_decrypt_values", record)
    clean = engine.run(secrets, seed=7)
    delivered = decrypted[-1]
    forged_lane = sorted(delivered)[len(delivered) // 2]
    encrypt = protocol.batch_encrypt_shares
    forged = {}

    def flip_one_tag(plaintexts, plan, round_nonce):
        sealed = encrypt(plaintexts, plan, round_nonce)
        sealed.mac[0, forged_lane] ^= 1 << 31  # first tag byte
        forged["source"] = int(plan.source[forged_lane])
        return sealed

    monkeypatch.setattr(protocol, "batch_encrypt_shares", flip_one_tag)
    tampered = engine.run(secrets, seed=7)
    assert decrypted[-1] == {**delivered, forged_lane: None}

    field = engine.config.field
    source = forged["source"]
    for node, metrics in tampered.per_node.items():
        before = clean.per_node[node].contributors
        assert metrics.contributors <= before
        assert before - metrics.contributors <= {source}
        if metrics.aggregate is not None:
            assert metrics.correct
            total = sum(secrets[s] for s in metrics.contributors)
            assert metrics.aggregate == total % field.prime
