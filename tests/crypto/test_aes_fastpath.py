"""Fast-path AES must be bit-identical to the from-scratch reference.

The T-table implementation (and the native lane kernel over its tables)
are pure optimizations: these tests pin them to the readable byte-level
implementation on the FIPS-197 / SP 800-38A known-answer vectors and on
randomized key/plaintext sweeps, and pin the batched CTR keystream and
CBC-MAC helpers to their per-block definitions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cbc_encrypt
from repro import fastpath
from repro.crypto.aes import AES128
from repro.crypto.mac import cbc_mac
from repro.crypto.modes import ctr_keystream, ctr_transform, pad_pkcs7
from repro.crypto.prng import AesCtrDrbg

blocks = st.binary(min_size=16, max_size=16)
keys = st.binary(min_size=16, max_size=16)


class TestTTableMatchesReference:
    def test_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES128(key, use_tables=True).encrypt_block(plaintext) == expected

    def test_sp80038a_ecb_vectors_both_paths(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        vectors = [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
        ]
        fast = AES128(key, use_tables=True)
        reference = AES128(key, use_tables=False)
        for plaintext_hex, ciphertext_hex in vectors:
            plaintext = bytes.fromhex(plaintext_hex)
            ciphertext = bytes.fromhex(ciphertext_hex)
            assert fast.encrypt_block(plaintext) == ciphertext
            assert reference.encrypt_block(plaintext) == ciphertext

    @given(key=keys, block=blocks)
    @settings(max_examples=60)
    def test_encrypt_agrees(self, key, block):
        assert AES128(key, use_tables=True).encrypt_block(block) == AES128(
            key, use_tables=False
        ).encrypt_block(block)

    def test_randomized_sweep(self):
        rnd = random.Random(0xA35)
        for _ in range(300):
            key = rnd.randbytes(16)
            block = rnd.randbytes(16)
            fast = AES128(key, use_tables=True)
            reference = AES128(key, use_tables=False)
            assert fast.encrypt_block(block) == reference.encrypt_block(block)

    def test_encrypt_int_matches_bytes(self):
        cipher = AES128(bytes(range(16)), use_tables=True)
        value = int.from_bytes(bytes.fromhex("00112233445566778899aabbccddeeff"), "big")
        assert cipher.encrypt_int(value).to_bytes(16, "big") == cipher.encrypt_block(
            value.to_bytes(16, "big")
        )


class TestBatchedPrimitives:
    def test_ctr_blocks_match_sequential(self):
        cipher = AES128(bytes(range(16)))
        start = (1 << 128) - 2  # exercises the counter wrap
        batched = cipher.ctr_blocks(start, 5)
        sequential = b"".join(
            cipher.encrypt_block(((start + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(5)
        )
        assert batched == sequential

    def test_ctr_keystream_batched_equals_per_block(self):
        cipher = AES128(bytes(range(16)))
        nonce = bytes(range(16))
        stream = ctr_keystream(cipher, nonce, 70)
        counter = int.from_bytes(nonce, "big")
        manual = b"".join(
            cipher.encrypt_block(((counter + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(5)
        )[:70]
        assert stream == manual

    def test_ctr_transform_single_block_fast_path(self):
        cipher = AES128(bytes(range(16)))
        nonce = bytes(reversed(range(16)))
        data = bytes(range(16))
        expected = bytes(
            a ^ b for a, b in zip(data, ctr_keystream(cipher, nonce, 16))
        )
        assert ctr_transform(cipher, nonce, data) == expected

    def test_cbc_mac_matches_cbc_encrypt_tail(self):
        cipher = AES128(bytes(range(16)))
        for message in (b"", b"x", bytes(range(40)), bytes(200)):
            prefixed = len(message).to_bytes(8, "big") + message
            padded = pad_pkcs7(prefixed)
            tail = cbc_encrypt(cipher, bytes(16), padded)[-16:]
            assert cbc_mac(cipher, message, 16) == tail

    def test_lane_kernel_matches_scalar(self):
        # CTR over a zero block outputs E(nonce): 40 lanes under 40 keys.
        from array import array

        from repro.crypto import aesbatch

        if not aesbatch.lanes_available():
            pytest.skip("no native library: the scalar tables are all there is")
        rnd = random.Random(3)
        ciphers = [AES128(rnd.randbytes(16), use_tables=True) for _ in range(40)]
        keys = array("I", [word for cipher in ciphers for word in cipher._enc_words])
        tails = [rnd.getrandbits(64) for _ in range(40)]
        output, _ = aesbatch.ctr_cbc_mac(
            keys,
            keys,
            array("q", range(40)),
            array("q", [tail >> 32 for tail in tails]),
            array("q", [tail & 0xFFFFFFFF for tail in tails]),
            0x0123456789ABCDEF,
            array("Q", bytes(8 * 40)),
            1,
        )
        batched = [output[2 * i] << 64 | output[2 * i + 1] for i in range(40)]
        scalar = [c.encrypt_int(0x0123456789ABCDEF << 64 | t) for c, t in zip(ciphers, tails)]
        assert batched == scalar


class TestDrbgStreamCompatibility:
    def test_fast_and_reference_streams_identical(self):
        with fastpath.forced(True):
            fast = AesCtrDrbg.from_seed(b"stream-compat")
        with fastpath.forced(False):
            reference = AesCtrDrbg.from_seed(b"stream-compat")
        # Interleave odd-sized reads; batching must never change values.
        for size in (1, 7, 16, 3, 64, 128, 5, 1000):
            assert fast.random_bytes(size) == reference.random_bytes(size)
        for bound in (10, 1 << 61, 97):
            assert fast.randrange(bound) == reference.randrange(bound)
        assert fast.fork("child").random_bytes(32) == reference.fork(
            "child"
        ).random_bytes(32)
