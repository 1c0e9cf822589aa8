"""Batched share lanes must be bit-identical to the per-packet codec."""

from __future__ import annotations

import random

import pytest

from repro.core.payload import (
    LanePlan,
    PairKeyTable,
    RealShareCodec,
    batch_decrypt_values,
    batch_encrypt_shares,
)
from repro.ct.packet import ChainLayout
from repro.errors import CryptoError
from repro.field.prime_field import FieldElement, PrimeField

aesbatch = pytest.importorskip("repro.crypto.aesbatch")
if not aesbatch.HAVE_NUMPY:  # pragma: no cover
    pytest.skip("numpy unavailable", allow_module_level=True)

NODES = list(range(10))


def codecs_for(tag_bytes: int = 4) -> dict[int, RealShareCodec]:
    from repro import fastpath

    # The batch pipeline needs table-mode ciphers regardless of the
    # session's REPRO_FASTPATH setting.
    with fastpath.forced(True):
        return {
            n: RealShareCodec(n, NODES, b"bench-master-secret", tag_bytes=tag_bytes)
            for n in NODES
        }


def lane_plan(codecs) -> LanePlan:
    sources, destinations = NODES, [1, 4, 5, 8]
    layout = ChainLayout.sharing(sources, destinations)
    return LanePlan(PairKeyTable(codecs), sources, destinations, layout)


@pytest.fixture(scope="module")
def setup():
    field = PrimeField()
    codecs = codecs_for()
    plan = lane_plan(codecs)
    rnd = random.Random(99)
    values = [rnd.randrange(field.prime) for _ in range(len(plan))]
    return field, codecs, plan, values


def scalar_packet(codecs, plan, lane, value, field, round_nonce):
    source = int(plan.source[lane])
    destination = int(plan.destination[lane])
    return codecs[source].encrypt_share(
        destination, FieldElement(field, value), round_nonce
    )


def test_lane_plan_covers_every_foreign_pair(setup):
    _, _, plan, _ = setup
    pairs = list(zip(plan.source.tolist(), plan.destination.tolist()))
    assert pairs == [(s, d) for s in NODES for d in (1, 4, 5, 8) if s != d]
    keys = plan.keys
    assert keys.enc.shape == keys.mac.shape == (44, len(NODES) * (len(NODES) - 1))


def test_batch_encrypt_bit_identical(setup):
    field, codecs, plan, values = setup
    round_nonce = 0x1234_5678_9ABC
    sealed = batch_encrypt_shares(values, plan, round_nonce)
    for lane, value in enumerate(values):
        reference = scalar_packet(codecs, plan, lane, value, field, round_nonce)
        assert sealed.packet(lane) == reference


def test_batch_decrypt_round_trips(setup):
    field, _, plan, values = setup
    round_nonce = 77
    sealed = batch_encrypt_shares(values, plan, round_nonce)
    lanes = list(range(len(plan)))
    assert batch_decrypt_values(lanes, sealed, field, round_nonce) == values
    # A subset, out of order, decrypts lane by lane.
    subset = [7, 3, 30, 0]
    assert batch_decrypt_values(subset, sealed, field, round_nonce) == [
        values[lane] for lane in subset
    ]


def test_batch_decrypt_agrees_with_scalar_on_tampered_packets(setup):
    field, codecs, plan, values = setup
    round_nonce = 31337
    sealed = batch_encrypt_shares(values, plan, round_nonce)
    sealed.mac[:, 0] = 0  # forged tag
    sealed.ciphertext[:, 1] = 0  # ciphertext no longer matches tag
    results = batch_decrypt_values([0, 1, 2], sealed, field, round_nonce)
    assert results[0] is None  # forged tag
    assert results[1] is None  # ciphertext no longer matches tag
    assert results[2] is not None  # untouched packet still decrypts
    for lane in (0, 1):
        packet = sealed.packet(lane)
        with pytest.raises(CryptoError):
            codecs[packet.destination].decrypt_share(packet, field, round_nonce)


@pytest.mark.parametrize("tag_bytes", [1, 3, 4, 5, 8, 13, 16])
def test_tag_compare_covers_exactly_the_wire_bytes(tag_bytes):
    field = PrimeField()
    codecs = codecs_for(tag_bytes)
    plan = lane_plan(codecs)
    values = list(range(len(plan)))
    sealed = batch_encrypt_shares(values, plan, 5)
    for lane in range(len(plan)):
        packet = sealed.packet(lane)
        assert len(packet.tag) == tag_bytes
        assert packet == scalar_packet(codecs, plan, lane, values[lane], field, 5)
    # Flip the last carried tag byte of lane 0 and the first dropped one
    # of lane 1: only the carried byte is checked.
    last = tag_bytes - 1
    sealed.mac[last // 4, 0] ^= 1 << (8 * (3 - last % 4))
    if tag_bytes < 16:
        sealed.mac[tag_bytes // 4, 1] ^= 1 << (8 * (3 - tag_bytes % 4))
    results = batch_decrypt_values([0, 1, 2], sealed, field, 5)
    assert results == [None, values[1], values[2]]
