"""The stacked-state lane kernel and its key matrix against scalar AES.

``aesbatch`` runs every lane of a batch through one ``(4, N)`` state
under a ``(44, N)`` key layout gathered from a bounded registry.  These
tests pin its output to :meth:`AES128.encrypt_int` / ``ctr_blocks`` for
batch widths around the kernel's shape boundaries, across counter word
wraps, through registry overflow, and check that the process-cache
reset really releases the ciphers it held.
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


@pytest.fixture
def fresh_registry():
    aesbatch.clear_key_rows()
    yield
    aesbatch.clear_key_rows()


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
        values = [0, 1, (1 << 128) - 1, 1 << 127] + [rnd.getrandbits(128) for _ in range(50)]
        assert aesbatch.ints_from_words(aesbatch.words_from_ints(values)) == values

    def test_mac_tags_match_scalar_for_every_tag_width(self):
        from repro.crypto.mac import cbc_mac
        from repro.crypto.modes import ctr_transform

        rnd = random.Random(7)
        enc, mac = table_ciphers(rnd, 9), table_ciphers(rnd, 9)
        nonces = [rnd.getrandbits(128) for _ in range(9)]
        data = [rnd.getrandbits(128) for _ in range(9)]
        for tag_bytes in (1, 4, 8, 16):
            outputs, tags = aesbatch.ctr_cbc_mac_batch(enc, mac, nonces, data, tag_bytes)
            for i in range(9):
                nonce = nonces[i].to_bytes(16, "big")
                ct = ctr_transform(enc[i], nonce, data[i].to_bytes(16, "big"))
                assert outputs[i] == int.from_bytes(ct, "big")
                assert tags[i] == cbc_mac(mac[i], nonce + ct, tag_bytes)


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
    def test_overflow_inside_one_batch(self, monkeypatch, fresh_registry):
        monkeypatch.setattr(aesbatch, "_KEY_ROWS_MAX", 8)
        rnd = random.Random(9)
        old = table_ciphers(rnd, 6)
        assert aesbatch.encrypt_blocks(old, [1] * 6) == [c.encrypt_int(1) for c in old]
        # Five unseen ciphers push the registry past its cap mid-batch,
        # and the batch repeats ciphers registered before the clear.
        batch = old[:2] + table_ciphers(rnd, 5) + old[:2]
        blocks = [rnd.getrandbits(128) for _ in batch]
        assert aesbatch.encrypt_blocks(batch, blocks) == [
            c.encrypt_int(b) for c, b in zip(batch, blocks)
        ]
        assert len(aesbatch._KEY_SLOTS) <= 8

    def test_batch_wider_than_the_cap(self, monkeypatch, fresh_registry):
        monkeypatch.setattr(aesbatch, "_KEY_ROWS_MAX", 4)
        rnd = random.Random(10)
        for width in (3, 11, 2, 11):
            ciphers = table_ciphers(rnd, width)
            blocks = [rnd.getrandbits(128) for _ in ciphers]
            assert aesbatch.encrypt_blocks(ciphers, blocks) == [
                c.encrypt_int(b) for c, b in zip(ciphers, blocks)
            ]
            assert len(aesbatch._KEY_SLOTS) <= max(4, width)

    def test_growth_keeps_earlier_columns(self, fresh_registry):
        rnd = random.Random(11)
        ciphers = []
        for step in range(6):
            ciphers += table_ciphers(rnd, 30 + step)
            blocks = [rnd.getrandbits(128) for _ in ciphers]
            assert aesbatch.encrypt_blocks(ciphers, blocks) == [
                c.encrypt_int(b) for c, b in zip(ciphers, blocks)
            ]
        assert len(aesbatch._KEY_SLOTS) == len(ciphers)

    def test_concurrent_batches_keep_their_own_keys(self, monkeypatch, fresh_registry):
        # A small cap makes the threads clear and regrow the shared matrix
        # under each other; a lane that read another batch's column would
        # come out wrong.
        monkeypatch.setattr(aesbatch, "_KEY_ROWS_MAX", 24)
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
        assert aesbatch._KEY_MATRIX is None
