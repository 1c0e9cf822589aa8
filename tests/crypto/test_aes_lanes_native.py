"""Share-packet AES in C (``aes_lanes.c``) against scalar AES and the codec.

``aesbatch.ctr_cbc_mac`` runs a round's share-packet crypto in the
native library; per-packet ``RealShareCodec`` (over ``AES128``) is its
oracle and, where the library did not load, the path rounds take.  These
tests check the two agree bit for bit in both directions, through the
packet pipeline too (tag widths, forged tags, non-canonical plaintexts),
pin literals through the C path and the codec, and check that a refused
call raises instead of computing.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fastpath, native
from repro.core.payload import (
    LanePlan,
    PairKeyTable,
    RealShareCodec,
    SharePacket,
    batch_decrypt_values,
    batch_encrypt_shares,
)
from repro.ct.packet import ChainLayout
from repro.crypto import aesbatch
from repro.crypto.aes import AES128
from repro.crypto.mac import cbc_mac
from repro.crypto.modes import ctr_transform
from repro.errors import CryptoError
from repro.field.prime_field import FieldElement, PrimeField


@pytest.fixture
def lane_kernel(monkeypatch):
    """The lane count of every call that reaches the C kernel; skips
    where the native library did not load."""
    if not aesbatch.lanes_available():
        pytest.skip("no native library: rounds keep the per-packet codec")
    calls = []
    real = native.kernel

    def kernel(name, signature):
        function = real(name, signature)
        if function is None or name != "aes_ctr_cbc_mac":
            return function
        return lambda *args: calls.append(args[0]) or function(*args)

    monkeypatch.setattr(native, "kernel", kernel)
    return calls


EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@EXAMPLES
@given(
    lanes=st.sampled_from([0, 1, 7, 8, 800]),
    key_columns=st.integers(min_value=1, max_value=40),
    mac_over_input=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_kernel_matches_scalar_aes(lane_kernel, lanes, key_columns, mac_over_input, seed):
    rnd = random.Random(seed)
    enc = [AES128(rnd.randbytes(16), use_tables=True) for _ in range(key_columns)]
    mac = [AES128(rnd.randbytes(16), use_tables=True) for _ in range(key_columns)]
    columns = [rnd.randrange(key_columns) for _ in range(lanes)]
    tails = [(rnd.getrandbits(32), rnd.getrandbits(32)) for _ in range(lanes)]
    round_nonce = rnd.getrandbits(64)
    data = [rnd.getrandbits(128) for _ in range(lanes)]
    plan = (
        array("I", [w for cipher in enc for w in cipher._enc_words]),
        array("I", [w for cipher in mac for w in cipher._enc_words]),
        array("q", columns),
        array("q", [source for source, _ in tails]),
        array("q", [destination for _, destination in tails]),
        round_nonce,
        array("Q", [word for value in data for word in divmod(value, 1 << 64)]),
    )
    before = len(lane_kernel)
    output, second = aesbatch.ctr_cbc_mac(*plan)
    if mac_over_input:  # open what the scalar side sealed
        sealed = [
            ctr_transform(enc[c], nonce(round_nonce, t), v.to_bytes(16, "big"))
            for c, t, v in zip(columns, tails, data)
        ]
        tags = [
            cbc_mac(mac[c], nonce(round_nonce, t) + ct, 16)
            for c, t, ct in zip(columns, tails, sealed)
        ]
        output, second = aesbatch.ctr_cbc_mac(*plan[:6], words_of(*sealed), tags=words_of(*tags))
        assert output == plan[6] and second == bytes(lanes)
    else:
        for i, (c, t, v) in enumerate(zip(columns, tails, data)):
            ct = ctr_transform(enc[c], nonce(round_nonce, t), v.to_bytes(16, "big"))
            assert output[2 * i : 2 * i + 2] == words_of(ct)
            tag = cbc_mac(mac[c], nonce(round_nonce, t) + ct, 16)
            assert second[2 * i : 2 * i + 2] == words_of(tag)
    assert lane_kernel[before:] == [lanes] * (1 + mac_over_input)


def nonce(round_nonce: int, tail: tuple[int, int]) -> bytes:
    return round_nonce.to_bytes(8, "big") + tail[0].to_bytes(4, "big") + tail[1].to_bytes(4, "big")


def words_of(*blocks: bytes) -> array:
    """16-byte blocks as the kernel's words, two per block, high first."""
    values = [int.from_bytes(block, "big") for block in blocks]
    return array("Q", [word for value in values for word in divmod(value, 1 << 64)])


#: One small deployment per tag width, shared by every example.
_TABLES: dict[int, tuple] = {}


def deployment(tag_bytes: int):
    if tag_bytes not in _TABLES:
        nodes = list(range(6))
        with fastpath.forced(True):
            codecs = {n: RealShareCodec(n, nodes, b"lanes", tag_bytes) for n in nodes}
        layout = ChainLayout.sharing(nodes, nodes[:4])
        plan = LanePlan(PairKeyTable(codecs), nodes, nodes[:4], layout)
        _TABLES[tag_bytes] = codecs, plan
    return _TABLES[tag_bytes]


@EXAMPLES
@given(
    tag_bytes=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
    forged_bit=st.integers(min_value=0, max_value=127),
    round_nonce=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_packet_pipeline_matches_codec(lane_kernel, tag_bytes, seed, forged_bit, round_nonce):
    codecs, plan = deployment(tag_bytes)
    field = PrimeField()
    rnd = random.Random(seed)
    values = [rnd.randrange(field.prime) for _ in range(len(plan))]
    values[1] = field.prime + rnd.randrange(1 << 64)  # decrypts non-canonical
    before = len(lane_kernel)
    sealed = batch_encrypt_shares(values, plan, round_nonce)
    for lane, value in enumerate(values):
        source = codecs[plan.source[lane]]
        destination = plan.destination[lane]
        assert sealed.packet(lane) == codec_packet(source, destination, value, round_nonce)
    sealed.mac[2 * 2 + forged_bit // 64] ^= 1 << (63 - forged_bit % 64)
    in_c = batch_decrypt_values(range(len(plan)), sealed, field, round_nonce)
    assert lane_kernel[before:] == [len(plan), len(plan)]
    # None exactly where the per-packet receiver raises.
    for lane, value in enumerate(in_c):
        packet = sealed.packet(lane)
        receiver = codecs[packet.destination]
        try:
            expected = receiver.decrypt_share(packet, field, round_nonce).value
        except CryptoError:
            expected = None
        assert value == expected
    assert in_c[1] is None
    assert (in_c[2] is None) == (forged_bit < 8 * tag_bytes)


def codec_packet(
    sender: RealShareCodec, destination: int, value: int, round_nonce: int
) -> SharePacket:
    """What the per-packet sender puts on the wire for ``value``, which
    may lie past the prime (``encrypt_share`` takes a field element)."""
    enc, mac = sender.ciphers_for(destination)
    packet_nonce = sender._nonce(round_nonce, sender.node_id, destination)
    ciphertext = ctr_transform(enc, packet_nonce, value.to_bytes(16, "big"))
    return SharePacket(
        source=sender.node_id,
        destination=destination,
        ciphertext=ciphertext,
        tag=cbc_mac(mac, packet_nonce + ciphertext, sender.tag_bytes),
    )


def test_fips197_c1_through_the_lane_kernel(lane_kernel):
    # CTR with a zero data block outputs E(nonce): the FIPS-197 C.1 block.
    keys = array("I", AES128(bytes(range(16)), use_tables=True)._enc_words)
    output, _ = aesbatch.ctr_cbc_mac(
        keys,
        keys,
        array("q", [0]),
        array("q", [0x8899AABB]),
        array("q", [0xCCDDEEFF]),
        0x0011223344556677,
        array("Q", [0]),
        1,
    )
    assert lane_kernel == [1]
    assert output.tolist() == [0x69C4E0D86A7B0430, 0xD8CDB78070B4C55A]


PINNED_SECRET = b"pinned-lane"
PINNED_NONCE = 0x0123456789ABCDEF


def pinned_lane():
    with fastpath.forced(True):
        codecs = {n: RealShareCodec(n, [0, 1], PINNED_SECRET, tag_bytes=16) for n in (0, 1)}
    plan = LanePlan(PairKeyTable(codecs), [0], [1], ChainLayout.sharing([0], [1]))
    return batch_encrypt_shares([123456789], plan, PINNED_NONCE).packet(0)


def pinned_codec_packet():
    with fastpath.forced(True):
        codec = RealShareCodec(0, [0, 1], PINNED_SECRET, tag_bytes=16)
    return codec.encrypt_share(1, FieldElement(PrimeField(), 123456789), PINNED_NONCE)


@pytest.mark.parametrize("path", ["native", "codec"])
def test_sealed_lane_is_pinned(lane_kernel, path):
    packet = pinned_lane() if path == "native" else pinned_codec_packet()
    assert lane_kernel == ([1] if path == "native" else [])
    assert packet.ciphertext.hex() == "d3f9529c25ed01be8b64b06af3e3288e"
    assert packet.tag.hex() == "6e1a7e91c95cd40fb914ec3a104d416a"


def test_falls_back_silently_without_the_library(monkeypatch):
    from repro.core import protocol

    monkeypatch.setattr(native, "library", lambda: None)
    assert native.kernel("aes_ctr_cbc_mac", aesbatch._LANES_SIGNATURE) is None
    assert not protocol._batch_crypto_available()  # rounds take the codec
    assert pinned_codec_packet().tag.hex() == "6e1a7e91c95cd40fb914ec3a104d416a"
    with pytest.raises(CryptoError):  # and the lane helpers refuse
        pinned_lane()


def test_out_of_range_columns_are_refused(lane_kernel):
    keys = array("I", AES128(bytes(16), use_tables=True)._enc_words * 5)
    ids = array("q", [0, 1, 2])
    data = array("Q", [0, 1, 2])
    for columns in ([0, -1, 4], [0, 5, 4]):
        with pytest.raises(CryptoError):
            aesbatch.ctr_cbc_mac(keys, keys, array("q", columns), ids, ids, 0, data, 1)
    columns = array("q", [0, 1, 4])
    output, tags = aesbatch.ctr_cbc_mac(keys, keys, columns, ids, ids, 0, data, 1)
    with pytest.raises(CryptoError):  # a lane past the plan
        aesbatch.ctr_cbc_mac(
            keys, keys, columns, ids, ids, 0, output, lanes=array("q", [3]), tags=tags
        )
    assert lane_kernel == [3, 3, 3, 1]  # asked, refused, and nothing written
