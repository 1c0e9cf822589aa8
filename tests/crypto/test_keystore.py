"""Tests for pairwise key pre-distribution, and the key schedules it
expands in one batch (in C where the native library loaded)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath, native
from repro.crypto import PairwiseKeyStore, aesbatch, derive_pairwise_key
from repro.crypto.aes import AES128, _expand_key_words
from repro.errors import CryptoError, KeyNotFoundError

MASTER = b"network-master-secret"


class TestDerivation:
    def test_symmetric_in_nodes(self):
        assert derive_pairwise_key(MASTER, 3, 7) == derive_pairwise_key(MASTER, 7, 3)

    def test_distinct_pairs_distinct_keys(self):
        assert derive_pairwise_key(MASTER, 1, 2) != derive_pairwise_key(MASTER, 1, 3)
        assert derive_pairwise_key(MASTER, 1, 2) != derive_pairwise_key(MASTER, 2, 3)

    def test_distinct_masters_distinct_keys(self):
        assert derive_pairwise_key(b"a", 1, 2) != derive_pairwise_key(b"b", 1, 2)

    def test_key_length(self):
        assert len(derive_pairwise_key(MASTER, 0, 1)) == 16

    def test_self_pair_rejected(self):
        with pytest.raises(CryptoError):
            derive_pairwise_key(MASTER, 5, 5)

    def test_negative_ids_rejected(self):
        with pytest.raises(CryptoError):
            derive_pairwise_key(MASTER, -1, 2)


class TestKeyStore:
    def test_provision_covers_all_peers(self):
        store = PairwiseKeyStore.provision(0, range(5), MASTER)
        assert store.peers() == [1, 2, 3, 4]

    def test_provision_skips_self(self):
        store = PairwiseKeyStore.provision(2, [1, 2, 3], MASTER)
        assert store.peers() == [1, 3]

    def test_both_ends_agree(self):
        # The property that makes the "secure channel" work: node a's cipher
        # for b and node b's cipher for a are the same cipher, so the CTR
        # keystream one end seals with is the one the other opens with.
        store_a = PairwiseKeyStore.provision(0, [1], MASTER)
        store_b = PairwiseKeyStore.provision(1, [0], MASTER)
        block = bytes(range(16))
        encrypted = store_a.cipher_for(1).encrypt_block(block)
        assert store_b.cipher_for(0).encrypt_block(block) == encrypted

    def test_missing_key_raises(self):
        store = PairwiseKeyStore(0)
        with pytest.raises(KeyNotFoundError):
            store.cipher_for(9)

    def test_has_key(self):
        store = PairwiseKeyStore.provision(0, [1, 2], MASTER)
        assert 1 in store.peers()
        assert 5 not in store.peers()

    def test_install_self_rejected(self):
        store = PairwiseKeyStore(3)
        with pytest.raises(CryptoError):
            store.install_keys({3: bytes(16)})

    def test_negative_node_rejected(self):
        with pytest.raises(CryptoError):
            PairwiseKeyStore(-1)

    def test_len(self):
        assert len(PairwiseKeyStore.provision(0, range(4), MASTER)) == 3

    def test_node_id_property(self):
        assert PairwiseKeyStore(7).node_id == 7

    def test_repr(self):
        assert "node=7" in repr(PairwiseKeyStore(7))


# -- key schedules, many at once ---------------------------------------------

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def state(cipher: AES128) -> tuple:
    """Everything a cipher holds but the ``encrypt_int`` closure it makes
    on first use."""
    return (cipher._use_tables, cipher._enc_words, cipher._round_keys)


@pytest.fixture(params=["native", "no-library", "reference-path"])
def schedule_path(request, monkeypatch):
    """``AES128.many`` in C (skipped where the library did not load),
    with the loader finding nothing, and with the fast path off."""
    if request.param == "native" and aesbatch.native_key_schedules(bytes(16)) is None:
        pytest.skip("no native library: key schedules expand in Python")
    if request.param == "no-library":
        monkeypatch.setattr(native, "library", lambda: None)
    with fastpath.forced(request.param != "reference-path"):
        yield request.param


class TestKeySchedules:
    def test_many_is_each_cipher(self, schedule_path):
        keys = [derive_pairwise_key(MASTER, 0, peer) for peer in range(1, 40)]
        keys.append(bytes(range(16)))
        batched = AES128.many(keys)
        single = [AES128(key) for key in keys]
        assert [state(c) for c in batched] == [state(c) for c in single]
        assert batched[-1].encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT
        assert [c.encrypt_block(FIPS_PLAINTEXT) for c in batched] == [
            c.encrypt_block(FIPS_PLAINTEXT) for c in single
        ]

    def test_many_rejects_a_short_key(self, schedule_path):
        with pytest.raises(CryptoError):
            AES128.many([bytes(16), bytes(15)])

    def test_store_holds_the_keys_it_was_given(self, schedule_path):
        store = PairwiseKeyStore.provision(4, range(10), MASTER)
        for peer in store.peers():
            expected = AES128(derive_pairwise_key(MASTER, 4, peer))
            assert state(store.cipher_for(peer)) == state(expected)
        store.install_keys({11: bytes(range(16))})
        assert store.cipher_for(11).encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT
        with pytest.raises(CryptoError):
            store.install_keys({4: bytes(16)})


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.binary(min_size=16, max_size=16), max_size=20))
def test_native_key_schedules_match_the_python_expansion(keys):
    schedules = aesbatch.native_key_schedules(b"".join(keys))
    if schedules is None:
        pytest.skip("no native library: key schedules expand in Python")
    assert schedules == [_expand_key_words(key) for key in keys]
