"""Tests for the packet data path: share codecs and sum packets."""

from __future__ import annotations

import pytest

from repro.core.payload import (
    RealShareCodec,
    StubShareCodec,
    decode_sum_packet,
    encode_sum_packet,
)
from repro.errors import AuthenticationError, CryptoError, PacketError
from repro.field import MERSENNE_61, PrimeField

FIELD = PrimeField(MERSENNE_61)
MASTER = b"test-master"


@pytest.fixture
def alice():
    return RealShareCodec(0, peers=range(5), master_secret=MASTER)


@pytest.fixture
def bob():
    return RealShareCodec(1, peers=range(5), master_secret=MASTER)


class TestRealCodec:
    def test_roundtrip(self, alice, bob):
        value = FIELD(123456789)
        packet = alice.encrypt_share(1, value, round_nonce=7)
        assert bob.decrypt_share(packet, FIELD, round_nonce=7) == value

    def test_ciphertext_is_one_block(self, alice):
        packet = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        assert len(packet.ciphertext) == 16
        assert len(packet.tag) == 4

    def test_ciphertext_hides_value(self, alice):
        a = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        b = alice.encrypt_share(1, FIELD(6), round_nonce=1)
        # Same nonce, adjacent values: ciphertexts differ and neither
        # reveals the plaintext trivially.
        assert a.ciphertext != b.ciphertext
        assert a.ciphertext != FIELD(5).value.to_bytes(16, "big")

    def test_nonce_separates_rounds(self, alice):
        a = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        b = alice.encrypt_share(1, FIELD(5), round_nonce=2)
        assert a.ciphertext != b.ciphertext

    def test_wrong_destination_cannot_decrypt(self, alice):
        packet = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        charlie = RealShareCodec(2, peers=range(5), master_secret=MASTER)
        with pytest.raises(CryptoError):
            charlie.decrypt_share(packet, FIELD, round_nonce=1)

    def test_tampered_ciphertext_rejected(self, alice, bob):
        packet = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        tampered = type(packet)(
            source=packet.source,
            destination=packet.destination,
            ciphertext=bytes([packet.ciphertext[0] ^ 1]) + packet.ciphertext[1:],
            tag=packet.tag,
        )
        with pytest.raises(AuthenticationError):
            bob.decrypt_share(tampered, FIELD, round_nonce=1)

    def test_tampered_tag_rejected(self, alice, bob):
        packet = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        tampered = type(packet)(
            source=packet.source,
            destination=packet.destination,
            ciphertext=packet.ciphertext,
            tag=bytes([packet.tag[0] ^ 1]) + packet.tag[1:],
        )
        with pytest.raises(AuthenticationError):
            bob.decrypt_share(tampered, FIELD, round_nonce=1)

    def test_wrong_nonce_rejected(self, alice, bob):
        packet = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        with pytest.raises(AuthenticationError):
            bob.decrypt_share(packet, FIELD, round_nonce=2)

    def test_spoofed_source_rejected(self, alice, bob):
        # Charlie re-labels alice's packet as coming from node 3; bob's
        # MAC check against the (3, 1) key must fail.
        packet = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        spoofed = type(packet)(
            source=3,
            destination=packet.destination,
            ciphertext=packet.ciphertext,
            tag=packet.tag,
        )
        with pytest.raises(AuthenticationError):
            bob.decrypt_share(spoofed, FIELD, round_nonce=1)

    @pytest.mark.parametrize("tag_bytes", [0, 17, 20])
    def test_tag_length_outside_one_block_rejected(self, tag_bytes):
        # Refused at construction, as cbc_mac refuses it per packet: a
        # zero-byte tag would authenticate nothing.
        with pytest.raises(CryptoError, match="tag length"):
            RealShareCodec(0, peers=range(3), master_secret=MASTER, tag_bytes=tag_bytes)

    def test_both_directions_work(self):
        a = RealShareCodec(0, peers=[1], master_secret=MASTER)
        b = RealShareCodec(1, peers=[0], master_secret=MASTER)
        to_b = a.encrypt_share(1, FIELD(10), round_nonce=3)
        to_a = b.encrypt_share(0, FIELD(20), round_nonce=3)
        assert b.decrypt_share(to_b, FIELD, 3) == FIELD(10)
        assert a.decrypt_share(to_a, FIELD, 3) == FIELD(20)


class TestStubCodec:
    def test_roundtrip(self):
        a = StubShareCodec(0)
        b = StubShareCodec(1)
        packet = a.encrypt_share(1, FIELD(777), round_nonce=9)
        assert b.decrypt_share(packet, FIELD, round_nonce=9) == FIELD(777)

    def test_same_packet_shape_as_real(self, alice):
        stub = StubShareCodec(0).encrypt_share(1, FIELD(5), round_nonce=1)
        real = alice.encrypt_share(1, FIELD(5), round_nonce=1)
        assert len(stub.ciphertext) == len(real.ciphertext)
        assert len(stub.tag) == len(real.tag)

    def test_wrong_destination_detected(self):
        packet = StubShareCodec(0).encrypt_share(1, FIELD(5), round_nonce=1)
        with pytest.raises(CryptoError):
            StubShareCodec(2).decrypt_share(packet, FIELD, round_nonce=1)

    def test_corrupt_tag_detected(self):
        packet = StubShareCodec(0).encrypt_share(1, FIELD(5), round_nonce=1)
        bad = type(packet)(
            source=0, destination=1, ciphertext=packet.ciphertext, tag=b"\xff" * 4
        )
        with pytest.raises(AuthenticationError):
            StubShareCodec(1).decrypt_share(bad, FIELD, round_nonce=1)


class TestSumPackets:
    def test_roundtrip(self):
        mask = 1 << 0 | 1 << 3 | 1 << 7
        payload = encode_sum_packet(
            FIELD(987654321), contributors=mask, num_nodes=10, element_size=8
        )
        assert decode_sum_packet(payload, FIELD, 10, 8) == (FIELD(987654321), mask)
        # Padding bits past num_nodes name no contributor.
        padded = payload[:8] + (int.from_bytes(payload[8:], "big") | 0xFC00).to_bytes(2, "big")
        assert decode_sum_packet(padded, FIELD, 10, 8) == (FIELD(987654321), mask)

    def test_size(self):
        payload = encode_sum_packet(FIELD(1), 1, num_nodes=26, element_size=8)
        assert len(payload) == 8 + 4  # 8 B sum + ceil(26/8) B bitmap

    def test_empty_contributors(self):
        payload = encode_sum_packet(FIELD(0), 0, num_nodes=5, element_size=8)
        _, contributors = decode_sum_packet(payload, FIELD, 5, 8)
        assert contributors == 0

    def test_out_of_range_contributor_rejected(self):
        for mask in (1 << 10, 1 << 10 | 1, -1):
            with pytest.raises(PacketError):
                encode_sum_packet(FIELD(1), mask, num_nodes=10, element_size=8)

    def test_wrong_length_rejected(self):
        with pytest.raises(PacketError):
            decode_sum_packet(b"short", FIELD, 10, 8)

    def test_non_canonical_sum_rejected(self):
        payload = (FIELD.prime).to_bytes(8, "big") + bytes(2)
        with pytest.raises(PacketError):
            decode_sum_packet(payload, FIELD, 10, 8)
