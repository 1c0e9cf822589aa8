"""The native lane kernels and their buffer layouts against scalar AES.

``aesbatch.ctr_cbc_mac`` runs every lane of a batch in one call, each
under the key column its plan names; ``native_key_schedules`` and
``native_keystream_runs`` expand and run raw keys.  These tests pin
their output to :meth:`AES128.encrypt_int` / ``ctr_blocks`` /
``_enc_words`` for batch widths around the kernel's shape boundaries,
across counter word wraps and under concurrent callers, and check that
batching keeps no reference to a cipher once the process caches reset.
CTR over a zero data block outputs ``E(nonce)``, which is how the
share-lane kernel is held to single-block encryption.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import weakref
from array import array

import pytest

from repro import fastpath
from repro.crypto import aesbatch
from repro.crypto.aes import AES128
from repro.crypto.mac import cbc_mac
from repro.crypto.modes import ctr_transform

if not aesbatch.lanes_available():  # pragma: no cover
    pytest.skip("no native library: the per-packet codec is all there is", allow_module_level=True)

MASK64 = (1 << 64) - 1


def table_ciphers(rnd: random.Random, count: int) -> list[AES128]:
    return [AES128(rnd.randbytes(16), use_tables=True) for _ in range(count)]


def key_array(ciphers) -> array:
    return array("I", [word for cipher in ciphers for word in cipher._enc_words])


def seal(enc, mac, round_nonce: int, tails, data, columns=None):
    """Seal one lane per ``(source, destination)`` tail, lane ``i`` under
    key column ``columns[i]`` (``i`` by default); ``data`` are 128-bit
    ints.  Returns the CTR outputs and MACs as ints."""
    lanes = len(tails)
    columns = array("q", range(lanes) if columns is None else columns)
    words = array("Q", [word for value in data for word in divmod(value, 1 << 64)])
    output, tags = aesbatch.ctr_cbc_mac(
        enc,
        mac,
        columns,
        array("q", [source for source, _ in tails]),
        array("q", [destination for _, destination in tails]),
        round_nonce,
        words,
    )
    return ints(output), ints(tags)


def ints(words: array) -> list[int]:
    return [words[i] << 64 | words[i + 1] for i in range(0, len(words), 2)]


def random_tails(rnd: random.Random, lanes: int) -> list[tuple[int, int]]:
    return [(rnd.getrandbits(32), rnd.getrandbits(32)) for _ in range(lanes)]


def nonce_block(round_nonce: int, tail: tuple[int, int]) -> int:
    return round_nonce << 64 | tail[0] << 32 | tail[1]


class TestStackedKernel:
    @pytest.mark.parametrize("lanes", [1, 7, 8, 790])
    def test_matches_scalar_encrypt_int(self, lanes):
        rnd = random.Random(lanes)
        ciphers = table_ciphers(rnd, lanes)
        round_nonce = rnd.getrandbits(64)
        tails = random_tails(rnd, lanes)
        outputs, _ = seal(key_array(ciphers), key_array(ciphers), round_nonce, tails, [0] * lanes)
        assert outputs == [
            cipher.encrypt_int(nonce_block(round_nonce, tail))
            for cipher, tail in zip(ciphers, tails)
        ]

    def test_one_key_broadcasts_to_every_lane(self):
        rnd = random.Random(5)
        cipher = table_ciphers(rnd, 1)[0]
        tails = [(0, 0), (2**32 - 1, 2**32 - 1)] + random_tails(rnd, 9)
        keys = key_array([cipher])
        outputs, _ = seal(keys, keys, MASK64, tails, [0] * len(tails), columns=[0] * len(tails))
        assert outputs == [cipher.encrypt_int(nonce_block(MASK64, tail)) for tail in tails]

    def test_word_conversion_round_trips(self):
        # One word per lane (values below 2**64) and two (any 128-bit
        # value) must seal alike and open back to the same values.
        rnd = random.Random(6)
        cipher = table_ciphers(rnd, 1)[0]
        keys = key_array([cipher])
        for bits in (128, 64):
            top = (1 << bits) - 1
            values = [0, 1, top, 1 << (bits - 1)] + [rnd.getrandbits(bits) for _ in range(50)]
            n = len(values)
            plan = (keys, keys, array("q", [0] * n), array("q", range(n)), array("q", [9] * n), 3)
            wide = array("Q", [word for value in values for word in divmod(value, 1 << 64)])
            sealed, tags = aesbatch.ctr_cbc_mac(*plan, wide)
            if bits == 64:
                assert aesbatch.ctr_cbc_mac(*plan, array("Q", values), 1) == (sealed, tags)
            opened, rejected = aesbatch.ctr_cbc_mac(*plan, sealed, tags=tags)
            assert ints(opened) == values and rejected == bytes(n)

    def test_mac_tags_match_scalar_for_every_tag_width(self):
        rnd = random.Random(7)
        enc, mac = table_ciphers(rnd, 9), table_ciphers(rnd, 9)
        round_nonce = rnd.getrandbits(64)
        tails = random_tails(rnd, 9)
        data = [rnd.getrandbits(128) for _ in range(9)]
        outputs, macs = seal(key_array(enc), key_array(mac), round_nonce, tails, data)
        for tag_bytes in (1, 4, 8, 16):
            for i in range(9):
                nonce = nonce_block(round_nonce, tails[i]).to_bytes(16, "big")
                ct = ctr_transform(enc[i], nonce, data[i].to_bytes(16, "big"))
                assert outputs[i] == int.from_bytes(ct, "big")
                tag = macs[i].to_bytes(16, "big")[:tag_bytes]
                assert tag == cbc_mac(mac[i], nonce + ct, tag_bytes)

    def test_mac_over_input_inverts_the_sender(self):
        rnd = random.Random(12)
        enc = key_array(table_ciphers(rnd, 11))
        mac = key_array(table_ciphers(rnd, 11))
        tails = random_tails(rnd, 11)
        plan = (
            enc,
            mac,
            array("q", range(11)),
            array("q", [s for s, _ in tails]),
            array("q", [d for _, d in tails]),
            rnd.getrandbits(64),
        )
        plain = array("Q", [rnd.getrandbits(64) for _ in range(22)])
        sent, sent_mac = aesbatch.ctr_cbc_mac(*plan, plain)
        received, rejected = aesbatch.ctr_cbc_mac(*plan, sent, tags=sent_mac)
        assert received == plain and rejected == bytes(11)

    @pytest.mark.parametrize("keys", [1, 7, 46])
    def test_vectorized_key_schedule_matches_aes128(self, keys):
        rnd = random.Random(keys)
        raw = [rnd.randbytes(16) for _ in range(keys)] + [bytes(16), b"\xff" * 16]
        assert aesbatch.native_key_schedules(b"".join(raw)) == [
            AES128(key, use_tables=True)._enc_words for key in raw
        ]

    def test_one_cipher_across_many_lanes(self):
        cipher = table_ciphers(random.Random(13), 1)[0]
        keys = key_array([cipher])
        tails = [(0, block) for block in range(4096)]
        outputs, _ = seal(keys, keys, 0, tails, [0] * 4096, columns=[0] * 4096)
        assert outputs == [cipher.encrypt_int(block) for block in range(4096)]


class TestCounterWraps:
    COUNTERS = [
        (1 << 32) - 3,
        (1 << 64) - 2,
        (1 << 96) - 1,
        (1 << 128) - 3,
        (1 << 128) - 1,
        ((1 << 96) - 1) | (((1 << 32) - 1) << 32),
    ]

    @pytest.mark.parametrize("counter", COUNTERS)
    def test_ctr_keystream_across_word_wraps(self, counter):
        key = bytes(range(16))
        cipher = AES128(key, use_tables=True)
        for count in (1, 3, 6, 40):
            assert aesbatch.native_keystream_runs(key, [counter], [count]) == [
                cipher.ctr_blocks(counter, count)
            ]

    def test_ctr_keystream_many_across_word_wraps(self):
        rnd = random.Random(8)
        keys = [rnd.randbytes(16) for _ in range(len(self.COUNTERS) + 1)]
        counters = self.COUNTERS + [(1 << 130) + 5]  # reduced mod 2**128
        counts = [5, 0, 2, 7, 4, 3, 1]
        streams = aesbatch.native_keystream_runs(b"".join(keys), counters, counts)
        assert streams == [
            AES128(key, use_tables=True).ctr_blocks(counter, count)
            for key, counter, count in zip(keys, counters, counts)
        ]


class TestKeyMatrix:
    def test_concurrent_batches_keep_their_own_keys(self):
        # Threads interleave at a microsecond switch interval (the kernel
        # call itself runs without the GIL), each sealing under its own
        # key arrays; a lane that read another batch's keys would come
        # out wrong.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        failures = []

        def worker(seed: int) -> None:
            rnd = random.Random(seed)
            pool = table_ciphers(rnd, 12)
            for _ in range(40):
                ciphers = rnd.sample(pool, 7) + table_ciphers(rnd, 2)
                tails = random_tails(rnd, len(ciphers))
                keys = key_array(ciphers)
                outputs, _ = seal(keys, keys, seed, tails, [0] * len(ciphers))
                if outputs != [c.encrypt_int(nonce_block(seed, t)) for c, t in zip(ciphers, tails)]:
                    failures.append(seed)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_clear_process_caches_releases_batched_ciphers(self):
        class WeakCipher(AES128):
            """AES128 declares ``__slots__``; a subclass can be weakly referenced."""

        cipher = WeakCipher(bytes(range(16)), use_tables=True)
        keys = key_array([cipher])  # the lanes read copied schedule words
        assert seal(keys, keys, 0, [(0, 7)], [0])[0] == [cipher.encrypt_int(7)]
        ref = weakref.ref(cipher)
        fastpath.clear_process_caches()
        del cipher
        gc.collect()
        assert ref() is None
