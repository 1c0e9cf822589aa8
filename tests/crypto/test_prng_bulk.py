"""The DRBG's bulk/lane refill paths must never change the stream.

Where the native keystream kernel did not load, the DRBG routes large
refills through the aesbatch lanes when numpy is importable and the
rest through the scalar T-table loop: that changes only *which kernel*
produces keystream blocks, so every byte a consumer reads must be
identical across: reference path, scalar fast path, lane fast path, and
any prefill schedule.  These tests run with the loader made to find
nothing, so both fallbacks really run; ``test_prng_native.py`` holds the
native kernel to them.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import fastpath, native
from repro.crypto import prng
from repro.crypto.aes import AES128
from repro.crypto.prng import AesCtrDrbg


@pytest.fixture(autouse=True)
def no_native_library(monkeypatch):
    monkeypatch.setattr(native, "library", lambda: None)


@contextlib.contextmanager
def scalar_keystream():
    """The fast path with the lane keystream ruled out."""
    with pytest.MonkeyPatch.context() as patch, fastpath.forced(True):
        patch.setattr(prng, "_lane_keystream_available", lambda: False)
        yield


def consume(drbg):
    return (
        drbg.random_bytes(5),
        drbg.getrandbits(61),
        drbg.random_bytes(1000),
        drbg.randrange(10**15),
        drbg.random_bytes(4096),
        drbg.getrandbits(7),
    )


class TestStreamIdentity:
    def test_lane_refill_matches_scalar_and_reference(self):
        with fastpath.forced(True):
            lane = consume(AesCtrDrbg.from_seed(b"stream-x"))
        with scalar_keystream():
            scalar = consume(AesCtrDrbg.from_seed(b"stream-x"))
        with fastpath.forced(False):
            reference = consume(AesCtrDrbg.from_seed(b"stream-x"))
        assert lane == scalar == reference

    def test_prefill_is_stream_neutral(self):
        with fastpath.forced(True):
            plain = AesCtrDrbg.from_seed(b"prefill")
            prefilled = AesCtrDrbg.from_seed(b"prefill")
            prefilled.prefill(700)
            assert plain.random_bytes(2000) == prefilled.random_bytes(2000)

    def test_fork_many_matches_sequential_forks(self):
        labels = [f"dealer-{i}" for i in range(40)]
        with fastpath.forced(True):
            parent_a = AesCtrDrbg.from_seed(b"forks")
            batched = parent_a.fork_many(labels)
            AesCtrDrbg.prefill_many(batched, 96)
        with scalar_keystream():
            parent_b = AesCtrDrbg.from_seed(b"forks")
            sequential = [parent_b.fork(label) for label in labels]
        assert [c.key_bytes for c in batched] == [
            c.key_bytes for c in sequential
        ]
        assert [c.random_bytes(200) for c in batched] == [
            c.random_bytes(200) for c in sequential
        ]
        # the parents themselves continue identically too
        assert parent_a.random_bytes(64) == parent_b.random_bytes(64)

    @pytest.mark.parametrize("fast", [True, False])
    def test_fork_many_children_are_fork_children(self, fast):
        """Built without ``from_seed`` and ``__init__``, each child still
        has every slot a forked child has, for str and bytes labels."""
        labels = ["dealer-0", b"dealer-1", "", b"\xff" * 40]
        with fastpath.forced(fast):
            batched = AesCtrDrbg.from_seed(b"forks").fork_many(labels)
            parent = AesCtrDrbg.from_seed(b"forks")
            sequential = [parent.fork(label) for label in labels]
        slots = AesCtrDrbg.__slots__
        assert [[getattr(c, slot) for slot in slots] for c in batched] == [
            [getattr(c, slot) for slot in slots] for c in sequential
        ]

    def test_prefill_many_without_numpy_path(self):
        with scalar_keystream():
            parent = AesCtrDrbg.from_seed(b"forks-nonp")
            children = parent.fork_many(["a", "b", "c"])
            AesCtrDrbg.prefill_many(children, 128)
            degraded = [c.random_bytes(256) for c in children]
        with fastpath.forced(True):
            parent = AesCtrDrbg.from_seed(b"forks-nonp")
            children = parent.fork_many(["a", "b", "c"])
            AesCtrDrbg.prefill_many(children, 128)
            lane = [c.random_bytes(256) for c in children]
        assert degraded == lane


class TestCtrLaneKernel:
    def test_ctr_keystream_bit_identical(self):
        aesbatch = pytest.importorskip("repro.crypto.aesbatch")
        if not aesbatch.HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        cipher = AES128(bytes(range(16)), use_tables=True)
        for counter in (0, 1, 12345, (1 << 64) - 2, (1 << 128) - 3):
            for count in (0, 1, 3, 33, 100):
                assert aesbatch.ctr_keystream(
                    cipher, counter, count
                ) == cipher.ctr_blocks(counter, count)

    def test_ctr_keystream_many_bit_identical(self):
        aesbatch = pytest.importorskip("repro.crypto.aesbatch")
        if not aesbatch.HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        ciphers = [
            AES128(bytes(range(i, i + 16)), use_tables=True) for i in range(4)
        ]
        counters = [0, 7, (1 << 128) - 1, 1 << 64]
        counts = [3, 0, 4, 2]
        streams = aesbatch.keystream_runs(aesbatch.cipher_schedules(ciphers), counters, counts)
        for cipher, counter, count, stream in zip(
            ciphers, counters, counts, streams
        ):
            assert stream == cipher.ctr_blocks(counter, count)
