"""The stacked-state lane kernel and its key layouts against scalar AES.

``aesbatch`` runs every lane of a batch through one ``(4, N)`` state
under a ``(44, N)`` key layout, stacked per call from the ciphers'
schedules or expanded from raw keys.  These tests pin its output to
:meth:`AES128.encrypt_int` / ``ctr_blocks`` for batch widths around the
kernel's shape boundaries and across counter word wraps, and check that
batching keeps no reference to a cipher once the process caches reset.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import weakref

import pytest

from repro import fastpath
from repro.crypto.aes import AES128

aesbatch = pytest.importorskip("repro.crypto.aesbatch")
if not aesbatch.HAVE_NUMPY:  # pragma: no cover
    pytest.skip("numpy unavailable", allow_module_level=True)


def table_ciphers(rnd: random.Random, count: int) -> list[AES128]:
    return [AES128(rnd.randbytes(16), use_tables=True) for _ in range(count)]


class TestStackedKernel:
    @pytest.mark.parametrize("lanes", [1, 7, 8, 790])
    def test_matches_scalar_encrypt_int(self, lanes):
        rnd = random.Random(lanes)
        ciphers = table_ciphers(rnd, lanes)
        blocks = [rnd.getrandbits(128) for _ in range(lanes)]
        assert aesbatch.encrypt_blocks(ciphers, blocks) == [
            cipher.encrypt_int(block) for cipher, block in zip(ciphers, blocks)
        ]

    def test_one_key_broadcasts_to_every_lane(self):
        rnd = random.Random(5)
        cipher = table_ciphers(rnd, 1)[0]
        blocks = [0, (1 << 128) - 1] + [rnd.getrandbits(128) for _ in range(9)]
        rk = aesbatch._np.array(cipher._enc_words, dtype=aesbatch._np.uint32)
        state = aesbatch.encrypt_state(rk.reshape(44, 1), aesbatch.words_from_ints(blocks))
        assert aesbatch.ints_from_words(state) == [cipher.encrypt_int(b) for b in blocks]

    def test_word_conversion_round_trips(self):
        rnd = random.Random(6)
        # 64-bit blocks take the conversion's uint64 path, 128-bit ones
        # the byte path; both must give the same big-endian word layout.
        for bits in (128, 64):
            top = (1 << bits) - 1
            values = [0, 1, top, 1 << (bits - 1)] + [rnd.getrandbits(bits) for _ in range(50)]
            state = aesbatch.words_from_ints(values)
            assert state.dtype == aesbatch._np.int64
            assert state.T.tolist() == [
                [value >> (96 - 32 * c) & 0xFFFFFFFF for c in range(4)] for value in values
            ]
            assert aesbatch.ints_from_words(state) == values

    def test_mac_tags_match_scalar_for_every_tag_width(self):
        from repro.crypto.mac import cbc_mac
        from repro.crypto.modes import ctr_transform

        rnd = random.Random(7)
        enc, mac = table_ciphers(rnd, 9), table_ciphers(rnd, 9)
        nonces = [rnd.getrandbits(128) for _ in range(9)]
        data = [rnd.getrandbits(128) for _ in range(9)]
        outputs, macs = aesbatch.ctr_cbc_mac(
            aesbatch.cipher_schedules(enc),
            aesbatch.cipher_schedules(mac),
            aesbatch.words_from_ints(nonces),
            aesbatch.words_from_ints(data),
        )
        outputs = aesbatch.ints_from_words(outputs)
        macs = aesbatch.ints_from_words(macs)
        for tag_bytes in (1, 4, 8, 16):
            for i in range(9):
                nonce = nonces[i].to_bytes(16, "big")
                ct = ctr_transform(enc[i], nonce, data[i].to_bytes(16, "big"))
                assert outputs[i] == int.from_bytes(ct, "big")
                tag = macs[i].to_bytes(16, "big")[:tag_bytes]
                assert tag == cbc_mac(mac[i], nonce + ct, tag_bytes)

    def test_mac_over_input_inverts_the_sender(self):
        rnd = random.Random(12)
        enc = aesbatch.cipher_schedules(table_ciphers(rnd, 11))
        mac = aesbatch.cipher_schedules(table_ciphers(rnd, 11))
        nonce = aesbatch.words_from_ints([rnd.getrandbits(128) for _ in range(11)])
        plain = aesbatch.words_from_ints([rnd.getrandbits(128) for _ in range(11)])
        sent, sent_mac = aesbatch.ctr_cbc_mac(enc, mac, nonce, plain)
        received, received_mac = aesbatch.ctr_cbc_mac(
            enc, mac, nonce, sent, mac_over_input=True
        )
        assert (received == plain).all() and (received_mac == sent_mac).all()

    @pytest.mark.parametrize("keys", [1, 7, 46])
    def test_vectorized_key_schedule_matches_aes128(self, keys):
        rnd = random.Random(keys)
        raw = [rnd.randbytes(16) for _ in range(keys)] + [bytes(16), b"\xff" * 16]
        schedules = aesbatch.key_schedules(b"".join(raw))
        assert schedules.dtype == aesbatch._np.uint32
        assert schedules.T.tolist() == [
            AES128(key, use_tables=True)._enc_words for key in raw
        ]

    def test_one_cipher_across_many_lanes(self):
        cipher = table_ciphers(random.Random(13), 1)[0]
        blocks = list(range(4096))
        assert aesbatch.encrypt_blocks([cipher] * 4096, blocks) == [
            cipher.encrypt_int(block) for block in blocks
        ]


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
        cipher = AES128(bytes(range(16)), use_tables=True)
        for count in (1, 3, 6, 40):
            assert aesbatch.ctr_keystream(cipher, counter, count) == cipher.ctr_blocks(
                counter, count
            )

    def test_ctr_keystream_many_across_word_wraps(self):
        rnd = random.Random(8)
        ciphers = table_ciphers(rnd, len(self.COUNTERS) + 1)
        counters = self.COUNTERS + [(1 << 130) + 5]  # reduced mod 2**128
        counts = [5, 0, 2, 7, 4, 3, 1]
        streams = aesbatch.ctr_keystream_many(ciphers, counters, counts)
        assert streams == [
            cipher.ctr_blocks(counter, count)
            for cipher, counter, count in zip(ciphers, counters, counts)
        ]


class TestKeyMatrix:
    def test_concurrent_batches_keep_their_own_keys(self):
        # Threads interleave at a microsecond switch interval, each
        # batching a mix of shared and fresh ciphers; a lane that read
        # another batch's key column would come out wrong.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        failures = []

        def worker(seed: int) -> None:
            rnd = random.Random(seed)
            pool = table_ciphers(rnd, 12)
            for _ in range(40):
                ciphers = rnd.sample(pool, 7) + table_ciphers(rnd, 2)
                blocks = [rnd.getrandbits(128) for _ in ciphers]
                if aesbatch.encrypt_blocks(ciphers, blocks) != [
                    c.encrypt_int(b) for c, b in zip(ciphers, blocks)
                ]:
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
        assert aesbatch.encrypt_blocks([cipher], [7]) == [cipher.encrypt_int(7)]
        ref = weakref.ref(cipher)
        fastpath.clear_process_caches()
        del cipher
        gc.collect()
        assert ref() is None
