"""Tests for the deterministic AES-CTR DRBG."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import AesCtrDrbg
from repro.errors import CryptoError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = AesCtrDrbg.from_seed(b"seed")
        b = AesCtrDrbg.from_seed(b"seed")
        assert a.random_bytes(100) == b.random_bytes(100)

    def test_different_seed_different_stream(self):
        a = AesCtrDrbg.from_seed(b"seed-a")
        b = AesCtrDrbg.from_seed(b"seed-b")
        assert a.random_bytes(32) != b.random_bytes(32)

    def test_seed_types(self):
        assert AesCtrDrbg.from_seed("text").random_bytes(8) == AesCtrDrbg.from_seed(
            b"text"
        ).random_bytes(8)
        assert (
            AesCtrDrbg.from_seed(42).random_bytes(8)
            == AesCtrDrbg.from_seed(42).random_bytes(8)
        )

    def test_chunking_invariant(self):
        # Reading 10+22 bytes equals reading 32 bytes.
        a = AesCtrDrbg.from_seed(b"x")
        b = AesCtrDrbg.from_seed(b"x")
        assert a.random_bytes(10) + a.random_bytes(22) == b.random_bytes(32)


class TestInterface:
    def test_getrandbits_range(self):
        drbg = AesCtrDrbg.from_seed(b"bits")
        for bits in (1, 7, 8, 13, 61, 128):
            for _ in range(20):
                assert 0 <= drbg.getrandbits(bits) < (1 << bits)

    def test_getrandbits_zero(self):
        assert AesCtrDrbg.from_seed(b"z").getrandbits(0) == 0

    def test_getrandbits_negative(self):
        with pytest.raises(CryptoError):
            AesCtrDrbg.from_seed(b"z").getrandbits(-1)

    def test_randrange_bounds(self):
        drbg = AesCtrDrbg.from_seed(b"range")
        values = {drbg.randrange(10) for _ in range(300)}
        assert values <= set(range(10))
        assert len(values) == 10  # all values hit for a healthy generator

    def test_randrange_one(self):
        assert AesCtrDrbg.from_seed(b"one").randrange(1) == 0

    def test_randrange_invalid(self):
        with pytest.raises(CryptoError):
            AesCtrDrbg.from_seed(b"bad").randrange(0)

    def test_randint_inclusive(self):
        drbg = AesCtrDrbg.from_seed(b"int")
        values = {drbg.randint(5, 7) for _ in range(100)}
        assert values == {5, 6, 7}

    def test_randint_empty_range(self):
        with pytest.raises(CryptoError):
            AesCtrDrbg.from_seed(b"int").randint(7, 5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(CryptoError):
            AesCtrDrbg.from_seed(b"n").random_bytes(-1)

    def test_bad_key_size(self):
        with pytest.raises(CryptoError):
            AesCtrDrbg(b"short")


class TestFork:
    def test_fork_independent_of_parent_continuation(self):
        parent_a = AesCtrDrbg.from_seed(b"p")
        parent_b = AesCtrDrbg.from_seed(b"p")
        child_a = parent_a.fork("node-1")
        child_b = parent_b.fork("node-1")
        assert child_a.random_bytes(16) == child_b.random_bytes(16)

    def test_forks_with_different_labels_differ(self):
        parent = AesCtrDrbg.from_seed(b"p")
        a = parent.fork("node-1")
        b = parent.fork("node-2")
        assert a.random_bytes(16) != b.random_bytes(16)

    def test_fork_differs_from_parent(self):
        parent = AesCtrDrbg.from_seed(b"p")
        child = parent.fork("x")
        assert parent.random_bytes(16) != child.random_bytes(16)

    @staticmethod
    def _fork_and_draw(label: bytes) -> "tuple[AesCtrDrbg, list[AesCtrDrbg]]":
        from repro import fastpath

        with fastpath.forced(True):
            parent = AesCtrDrbg.from_seed(label)
            forks = parent.fork_many([f"dealer-{i}" for i in range(20)])
            AesCtrDrbg.prefill_many(forks, 32)
            for fork in forks:
                fork.random_bytes(600)  # past the prefill: own refills
        return parent, forks

    def test_fork_keys_never_enter_the_cipher_pool(self, monkeypatch):
        # Without the native library the DRBG builds and pools ciphers.
        from repro import native
        from repro.crypto import prng

        monkeypatch.setattr(native, "library", lambda: None)
        parent, forks = self._fork_and_draw(b"pool-check")
        keys = {fork.key_bytes for fork in forks}
        assert keys.isdisjoint(prng._CIPHER_POOL)
        assert parent.key_bytes in prng._CIPHER_POOL

    def test_native_keystream_builds_no_cipher(self, monkeypatch):
        from repro import native
        from repro.crypto import aesbatch, prng

        if native.kernel("aes_ctr_runs", aesbatch._CTR_RUNS_SIGNATURE) is None:
            pytest.skip("no native library: the DRBG builds its ciphers")
        built = []
        monkeypatch.setattr(prng, "AES128", lambda *args, **kwargs: built.append(args))
        parent, forks = self._fork_and_draw(b"native-pool-check")
        assert built == []
        assert parent._cipher is None
        assert all(fork._cipher is None for fork in forks)
        keys = {fork.key_bytes for fork in forks}
        assert keys.isdisjoint(prng._CIPHER_POOL)


class TestStatisticalSanity:
    def test_bit_balance(self):
        # Crude monobit check: the DRBG should produce ~50% ones.
        drbg = AesCtrDrbg.from_seed(b"monobit")
        data = drbg.random_bytes(4096)
        ones = sum(bin(byte).count("1") for byte in data)
        total = 8 * len(data)
        assert abs(ones / total - 0.5) < 0.02

    @given(bound=st.integers(min_value=2, max_value=1000))
    def test_randrange_always_in_bounds(self, bound):
        drbg = AesCtrDrbg.from_seed(bound)
        for _ in range(10):
            assert 0 <= drbg.randrange(bound) < bound
