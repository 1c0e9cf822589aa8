"""Known-answer and property tests for the from-scratch AES-128."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import AES128
from repro.errors import CryptoError

blocks = st.binary(min_size=16, max_size=16)
keys = st.binary(min_size=16, max_size=16)


class TestFips197Vectors:
    def test_appendix_b_cipher_example(self):
        # FIPS-197 Appendix B.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_appendix_c1_encrypt(self):
        # FIPS-197 Appendix C.1.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_sp80038a_ecb_vectors(self):
        # SP 800-38A F.1.1 (ECB-AES128) — four blocks.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        cipher = AES128(key)
        vectors = [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
        ]
        for plaintext_hex, ciphertext_hex in vectors:
            assert cipher.encrypt_block(bytes.fromhex(plaintext_hex)) == bytes.fromhex(
                ciphertext_hex
            )


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            AES128(b"short")

    def test_bad_block_length_encrypt(self):
        with pytest.raises(CryptoError):
            AES128(bytes(16)).encrypt_block(b"short")


class TestProperties:
    @given(key=keys, block=blocks)
    def test_encrypt_changes_block(self, key, block):
        # AES has no fixed points we could stumble on by chance.
        assert AES128(key).encrypt_block(block) != block

    @given(key=keys)
    def test_deterministic(self, key):
        block = bytes(range(16))
        assert AES128(key).encrypt_block(block) == AES128(key).encrypt_block(block)

    def test_key_sensitivity(self):
        block = bytes(16)
        a = AES128(bytes(16)).encrypt_block(block)
        b = AES128(bytes(15) + b"\x01").encrypt_block(block)
        assert a != b
