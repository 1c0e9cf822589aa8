"""The DRBG's bulk/lane refill paths must never change the stream.

On the fast path the DRBG refills in the native keystream kernel where
it loaded and in the scalar T-table loop (``AES128.ctr_blocks``) where
it did not: that changes only *which kernel* produces keystream blocks,
so every byte a consumer reads must be identical across: reference path,
scalar fast path, lane (native) fast path, and any prefill schedule.
These tests run with the loader made to find nothing, so the scalar
fallback really runs; the lane legs restore the library where it loads.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import fastpath, native
from repro.crypto import aesbatch
from repro.crypto.aes import AES128
from repro.crypto.prng import AesCtrDrbg

NATIVE_LIBRARY = native.library


@pytest.fixture(autouse=True)
def no_native_library(monkeypatch):
    monkeypatch.setattr(native, "library", lambda: None)


@contextlib.contextmanager
def scalar_keystream():
    """The fast path with the keystream on the scalar fallback."""
    with fastpath.forced(True):
        yield


@contextlib.contextmanager
def lane_keystream():
    """The fast path with the native keystream kernel, where it loads."""
    with pytest.MonkeyPatch.context() as patch, fastpath.forced(True):
        patch.setattr(native, "library", NATIVE_LIBRARY)
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
        with lane_keystream():
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
        with lane_keystream():
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
        with lane_keystream():
            parent = AesCtrDrbg.from_seed(b"forks-nonp")
            children = parent.fork_many(["a", "b", "c"])
            AesCtrDrbg.prefill_many(children, 128)
            lane = [c.random_bytes(256) for c in children]
        assert degraded == lane


class TestCtrLaneKernel:
    """The native keystream kernel against ``AES128.ctr_blocks``."""

    @pytest.fixture(autouse=True)
    def no_native_library(self):
        """The library as it loads: these tests are about the kernel."""
        if aesbatch.native_keystream_runs(bytes(16), [0], [1]) is None:
            pytest.skip("no native library: ctr_blocks is the keystream")

    def test_ctr_keystream_bit_identical(self):
        key = bytes(range(16))
        cipher = AES128(key, use_tables=True)
        for counter in (0, 1, 12345, (1 << 64) - 2, (1 << 128) - 3):
            for count in (0, 1, 3, 33, 100):
                assert aesbatch.native_keystream_runs(key, [counter], [count]) == [
                    cipher.ctr_blocks(counter, count)
                ]

    def test_ctr_keystream_many_bit_identical(self):
        keys = [bytes(range(i, i + 16)) for i in range(4)]
        counters = [0, 7, (1 << 128) - 1, 1 << 64]
        counts = [3, 0, 4, 2]
        streams = aesbatch.native_keystream_runs(b"".join(keys), counters, counts)
        for key, counter, count, stream in zip(keys, counters, counts, streams):
            assert stream == AES128(key, use_tables=True).ctr_blocks(counter, count)
