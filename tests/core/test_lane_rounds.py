"""Whole REAL rounds: the lane pipeline against the per-packet codec path.

Where the native library loaded, a fast-path REAL round protects its
shares as lanes (:func:`repro.core.payload.batch_encrypt_shares`).  With
the lane kernel ruled out, the same fast branch runs ``encrypt_share`` /
``decrypt_share`` per packet over the same MiniCast stream.  Both must
report identical round metrics, and a forged tag must cost exactly one
share of one destination.  Neither needs numpy: the lanes are plain
buffers for the C kernel.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from repro import fastpath
from repro.core import protocol
from repro.core.config import CryptoMode, ProtocolConfig, S4Config
from repro.core.s4 import S4Engine
from repro.crypto import aesbatch
from repro.field.prime_field import MERSENNE_127

if not aesbatch.lanes_available():  # pragma: no cover
    pytest.skip("no native library: rounds keep the per-packet codec", allow_module_level=True)


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


def test_mersenne_127_lanes_match_per_packet_codec(monkeypatch, small_network, lane_calls):
    # Shares past 2**64 take the lanes' two-word layout.
    topology, channel = small_network
    config = S4Config(
        base=ProtocolConfig(degree=2, crypto_mode=CryptoMode.REAL, prime=MERSENNE_127),
        sharing_ntx=4,
        reconstruction_ntx=6,
        collector_redundancy=1,
        bootstrap_iterations=8,
    )
    secrets = {node: (1 << 120) + 977 * node for node in topology.node_ids}
    with fastpath.forced(True):
        engine = S4Engine(topology, channel, config)
        lanes = engine.run(secrets, seed=3)
        assert lane_calls, "the round did not take the lane pipeline"
        assert per_packet_run(monkeypatch, engine, secrets, seed=3) == lanes
    assert any(metrics.aggregate and metrics.aggregate >> 64 for metrics in lanes.per_node.values())


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
        sealed.mac[2 * forged_lane] ^= 1 << 63  # first tag byte
        forged["source"] = plan.source[forged_lane]
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


def dcube_digest() -> str:
    """Three D-Cube REAL rounds and a small metering fold, hashed."""
    from repro.analysis.experiments import build_engines, round_secrets
    from repro.core.config import CryptoMode
    from repro.service.windows import aggregate_shards
    from repro.service.wire import ShareSubmission
    from repro.topology.testbeds import dcube

    spec = dcube()
    with fastpath.forced(True):
        _, engine = build_engines(spec, CryptoMode.REAL)
        digest = hashlib.sha256()
        for index in range(3):
            metrics = engine.run(round_secrets(spec.topology.node_ids, index), seed=index)
            digest.update(repr(sorted(metrics.per_node.items())).encode())
        submissions = {
            shard: [ShareSubmission(device, 0, 0, 7 * device + 1) for device in range(shard, 40, 4)]
            for shard in range(4)
        }
        digest.update(repr(aggregate_shards(submissions, seed=5, window=0)).encode())
    return digest.hexdigest()


def test_lanes_run_in_c_without_numpy(tmp_path, monkeypatch):
    probe = f"""
import importlib.abc, importlib.util, sys

class NoNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is hidden")
        return None

sys.meta_path.insert(0, NoNumpy())
from repro.core import protocol
lanes = []
encrypt = protocol.batch_encrypt_shares
protocol.batch_encrypt_shares = lambda *args: lanes.append(len(args[0])) or encrypt(*args)
spec = importlib.util.spec_from_file_location("lane_rounds", {__file__!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(module.dcube_digest(), len(lanes), "numpy" in sys.modules)
"""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        REPRO_CACHE_DIR=str(tmp_path / "child"),
    )
    env.pop("REPRO_FASTPATH", None)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    digest, lane_rounds, numpy_loaded = done.stdout.split()
    assert lane_rounds == "3"  # every round sealed its shares in the C kernel
    assert numpy_loaded == "False"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parent"))
    assert digest == dcube_digest()
