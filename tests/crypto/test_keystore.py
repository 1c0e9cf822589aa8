"""Tests for pairwise key pre-distribution, and the key schedules it
expands in one batch (in C where the native library loaded)."""

from __future__ import annotations

import pickle

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
        # for b encrypts what node b's cipher for a decrypts.
        store_a = PairwiseKeyStore.provision(0, [1], MASTER)
        store_b = PairwiseKeyStore.provision(1, [0], MASTER)
        block = bytes(range(16))
        encrypted = store_a.cipher_for(1).encrypt_block(block)
        assert store_b.cipher_for(0).decrypt_block(encrypted) == block

    def test_missing_key_raises(self):
        store = PairwiseKeyStore(0)
        with pytest.raises(KeyNotFoundError):
            store.cipher_for(9)

    def test_has_key(self):
        store = PairwiseKeyStore.provision(0, [1, 2], MASTER)
        assert store.has_key(1)
        assert not store.has_key(5)

    def test_install_self_rejected(self):
        store = PairwiseKeyStore(3)
        with pytest.raises(CryptoError):
            store.install_key(3, bytes(16))

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

#: ``pickle.dumps(AES128(bytes(range(16))), HIGHEST_PROTOCOL)`` as written
#: before key schedules were expanded in batches: the form a commissioning
#: cache on disk holds.
CACHED_CIPHER = bytes.fromhex(
    "8005956a010000000000008c10726570726f2e63727970746f2e616573948c064145533132389493"
    "942981947d94288c0a7573655f7461626c657394888c09656e635f776f726473945d94284a030201"
    "004a070605044a0b0a09084a0f0e0d0c8a05fd74aad6008a05fa72afd2008a05f178a6da008a05fe"
    "76abd6008a050bcf92b6004af1bd3d648a0500c59bbe004afeb330688a054e74ffb6008a05bfc9c2"
    "d2004abf0c596c4a41bf69044abcf7f7478a05033e3595008a05bc326cf9008a05fd8d05fd004ae8"
    "a3aa3c8a05eb9d9fa9004a57aff3508a05aa22f6ad004a7d0f395e8a059692a6f7008a05c13d55a7"
    "004a6b1fa30a4a1a70f9148a058ce25fe3004a4ddf0a444a26c0a94e4a358743478a05b9651ca400"
    "8a05f4ba16e0008a05d27abfae004ad13299548a05685785f0004a9ced93108a054e972cbe004a7f"
    "1d11138a05174a94e3008a058ba707f3004ac5302b4d658c096465635f776f726473944e8c0a726f"
    "756e645f6b657973944e75622e"
)
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


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
        assert [c.__getstate__() for c in batched] == [c.__getstate__() for c in single]
        assert [pickle.dumps(c) for c in batched] == [pickle.dumps(c) for c in single]
        assert batched[-1].encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT
        assert batched[-1].decrypt_block(FIPS_CIPHERTEXT) == FIPS_PLAINTEXT

    def test_many_rejects_a_short_key(self, schedule_path):
        with pytest.raises(CryptoError):
            AES128.many([bytes(16), bytes(15)])

    def test_cached_cipher_loads_and_pickles_the_same(self, schedule_path):
        loaded = pickle.loads(CACHED_CIPHER)
        assert loaded.encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT
        if schedule_path != "reference-path":
            built = AES128.many([bytes(range(16))])[0]
            assert pickle.dumps(built, protocol=pickle.HIGHEST_PROTOCOL) == CACHED_CIPHER

    def test_store_holds_the_keys_it_was_given(self, schedule_path):
        store = PairwiseKeyStore.provision(4, range(10), MASTER)
        for peer in store.peers():
            expected = AES128(derive_pairwise_key(MASTER, 4, peer))
            assert store.cipher_for(peer).__getstate__() == expected.__getstate__()
        store.install_key(11, bytes(range(16)))
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
