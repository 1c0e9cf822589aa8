"""Tests for CTR mode, the CBC oracle and PKCS#7 padding."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cbc_encrypt
from repro.crypto import AES128, ctr_keystream, ctr_transform
from repro.crypto.aes import BLOCK_SIZE
from repro.crypto.modes import pad_pkcs7
from repro.errors import CryptoError


def unpad_pkcs7(data: bytes) -> bytes:
    """Strip PKCS#7 padding, validating every pad byte: the inverse that
    holds ``pad_pkcs7`` (the CBC-MAC's padding) to the standard."""
    if not data or len(data) % BLOCK_SIZE != 0:
        raise CryptoError("invalid PKCS#7 input length")
    pad_length = data[-1]
    if not 1 <= pad_length <= BLOCK_SIZE:
        raise CryptoError("invalid PKCS#7 pad length")
    if data[-pad_length:] != bytes([pad_length]) * pad_length:
        raise CryptoError("corrupt PKCS#7 padding")
    return data[:-pad_length]


class TestCtrKnownAnswers:
    def test_sp80038a_f51_ctr_aes128(self):
        # SP 800-38A F.5.1 CTR-AES128.Encrypt.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        expected = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        )
        cipher = AES128(key)
        assert ctr_transform(cipher, counter, plaintext) == expected
        assert ctr_transform(cipher, counter, expected) == plaintext


class TestCtrBehaviour:
    def test_transform_is_involution(self):
        cipher = AES128(bytes(16))
        nonce = bytes(range(16))
        data = b"field element!!!"
        assert ctr_transform(cipher, nonce, ctr_transform(cipher, nonce, data)) == data

    def test_partial_block(self):
        cipher = AES128(bytes(16))
        nonce = bytes(16)
        stream = ctr_keystream(cipher, nonce, 5)
        assert len(stream) == 5
        assert stream == ctr_keystream(cipher, nonce, 16)[:5]

    def test_zero_length(self):
        cipher = AES128(bytes(16))
        assert ctr_keystream(cipher, bytes(16), 0) == b""

    def test_counter_wraps(self):
        cipher = AES128(bytes(16))
        nonce = b"\xff" * 16
        # Requesting 2 blocks from the max counter must wrap, not crash.
        stream = ctr_keystream(cipher, nonce, 32)
        assert stream[16:] == cipher.encrypt_block(bytes(16))

    def test_distinct_nonces_distinct_streams(self):
        cipher = AES128(bytes(16))
        a = ctr_keystream(cipher, bytes(16), 16)
        b = ctr_keystream(cipher, bytes(15) + b"\x01", 16)
        assert a != b

    def test_bad_nonce_length(self):
        with pytest.raises(CryptoError):
            ctr_keystream(AES128(bytes(16)), bytes(8), 16)

    def test_negative_length(self):
        with pytest.raises(CryptoError):
            ctr_keystream(AES128(bytes(16)), bytes(16), -1)

    @given(data=st.binary(max_size=200), key=st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, data, key):
        cipher = AES128(key)
        nonce = bytes(16)
        assert ctr_transform(cipher, nonce, ctr_transform(cipher, nonce, data)) == data


class TestCbc:
    def test_sp80038a_f21_cbc_aes128(self):
        # SP 800-38A F.2.1 CBC-AES128.Encrypt (first two blocks): the
        # oracle CBC-MAC's chain is held to is standard CBC.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        )
        expected = bytes.fromhex(
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
        )
        assert cbc_encrypt(AES128(key), iv, plaintext) == expected


class TestPkcs7:
    @given(data=st.binary(max_size=100))
    def test_roundtrip(self, data):
        assert unpad_pkcs7(pad_pkcs7(data)) == data

    def test_full_block_pad(self):
        padded = pad_pkcs7(bytes(16))
        assert len(padded) == 32
        assert padded[-1] == 16

    def test_corrupt_padding_rejected(self):
        padded = bytearray(pad_pkcs7(b"hello"))
        padded[-2] ^= 1
        with pytest.raises(CryptoError):
            unpad_pkcs7(bytes(padded))

    def test_empty_rejected(self):
        with pytest.raises(CryptoError):
            unpad_pkcs7(b"")

    def test_bad_length_rejected(self):
        with pytest.raises(CryptoError):
            unpad_pkcs7(bytes(15))
