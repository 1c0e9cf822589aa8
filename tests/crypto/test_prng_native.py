"""The DRBG keystream in C (``aes_ctr_runs`` in ``aes_lanes.c``) and the
batched coefficient draws, against their oracles.

On the fast path every DRBG refill and every batched prefill runs in the
native CTR kernel, straight from the raw keys; ``AES128.ctr_blocks`` and
the numpy ``keystream_runs`` are its oracles and fallbacks.
``AesCtrDrbg.randrange_many`` must be stream-identical to the per-draw
loop it replaces.  A round's dealing sequence must come out the same
whichever keystream path runs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath, native
from repro.crypto import aesbatch
from repro.crypto.aes import AES128
from repro.crypto.prng import AesCtrDrbg
from repro.field.kernels import M61
from repro.field.polynomial import Polynomial
from repro.field.prime_field import MERSENNE_127, PrimeField


def native_runs(keys: bytes, counters, counts):
    streams = aesbatch.native_keystream_runs(keys, counters, counts)
    if streams is None:
        pytest.skip("no native library: the keystream runs in numpy or Python")
    return streams


counters = st.one_of(
    st.sampled_from([0, (1 << 32) - 1, (1 << 64) - 1, (1 << 96) - 1, (1 << 128) - 1, 1 << 128]),
    st.integers(min_value=0, max_value=(1 << 130)),
)
counts = st.sampled_from([0, 1, 31, 32, 33, 500])


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(st.tuples(st.binary(min_size=16, max_size=16), counters, counts), max_size=6)
)
def test_kernel_matches_ctr_blocks_and_numpy(runs):
    keys = b"".join(key for key, _, _ in runs)
    starts = [counter for _, counter, _ in runs]
    lengths = [count for _, _, count in runs]
    streams = native_runs(keys, starts, lengths)
    assert streams == [
        AES128(key, use_tables=True).ctr_blocks(counter, count) for key, counter, count in runs
    ]
    if aesbatch.HAVE_NUMPY and runs:
        assert streams == aesbatch.keystream_runs(aesbatch.key_schedules(keys), starts, lengths)


def test_fips197_c1_through_the_kernel():
    (block,) = native_runs(
        bytes(range(16)), [0x00112233445566778899AABBCCDDEEFF], [1]
    )
    assert block.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_misaligned_arguments_compute_nothing():
    native_runs(bytes(16), [0], [1])  # skips without the library
    assert aesbatch.native_keystream_runs(bytes(15), [0], [1]) is None
    assert aesbatch.native_keystream_runs(bytes(32), [0], [1]) is None
    assert aesbatch.native_keystream_runs(bytes(16), [0], [-1]) is None


def buffered(seed: int, consumed: int, prefill: int) -> AesCtrDrbg:
    drbg = AesCtrDrbg.from_seed(seed)
    drbg.random_bytes(consumed)
    drbg.prefill(prefill)
    return drbg


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1 << 32),
    consumed=st.integers(min_value=0, max_value=70),
    prefill=st.integers(min_value=0, max_value=300),
    count=st.integers(min_value=-1, max_value=40),
    bound=st.one_of(
        st.sampled_from([1, 2, 255, 256, 257, M61, M61 - 1, (1 << 63) + 1, (1 << 64) - 1]),
        st.sampled_from([MERSENNE_127, 1 << 64, 10**30]),
        st.integers(min_value=1, max_value=1 << 64),
    ),
)
def test_randrange_many_matches_the_loop(seed, consumed, prefill, count, bound):
    with fastpath.forced(True):
        batched = buffered(seed, consumed, prefill)
        looped = buffered(seed, consumed, prefill)
        draws = batched.randrange_many(bound, count)
        assert draws == [looped.randrange(bound) for _ in range(count)]
        assert batched.random_bytes(48) == looped.random_bytes(48)


def test_randrange_many_falls_back_on_a_rejection():
    # Against 2**63 + 1 about half the 64-bit candidates are rejected.
    with fastpath.forced(True):
        batched = buffered(11, 0, 2000)
        looped = buffered(11, 0, 2000)
        assert batched.randrange_many((1 << 63) + 1, 100) == [
            looped.randrange((1 << 63) + 1) for _ in range(100)
        ]
        assert batched.random_bytes(16) == looped.random_bytes(16)


def test_random_with_secret_draws_like_the_loop():
    class LoopOnly:
        def __init__(self, drbg):
            self.randrange = drbg.randrange

    for prime in (M61, MERSENNE_127, 257):
        field = PrimeField(prime)
        for degree in (0, 1, 2, 15):
            batched = AesCtrDrbg.from_seed(f"dealer-{prime}-{degree}")
            looped = AesCtrDrbg.from_seed(f"dealer-{prime}-{degree}")
            AesCtrDrbg.prefill_many([batched, looped], degree * 16 + 16)
            assert Polynomial.random_with_secret(
                field, 5, degree, batched
            ) == Polynomial.random_with_secret(field, 5, degree, LoopOnly(looped))
            assert batched.random_bytes(32) == looped.random_bytes(32)


def dealing_digest() -> str:
    """Three rounds of the protocol's dealing: forks, one batched
    prefill, coefficient draws, evaluation, and reads past the prefill."""
    field = PrimeField(M61)
    degree = 15
    digest = hashlib.sha256()
    for round_ in range(3):
        root = AesCtrDrbg.from_seed(f"round-{round_}")
        dealers = root.fork_many([f"dealer-{i}" for i in range(45)])
        AesCtrDrbg.prefill_many(dealers, degree * 8 + 8)
        for secret, dealer in enumerate(dealers):
            polynomial = Polynomial.random_with_secret(field, secret, degree, dealer)
            digest.update(repr(polynomial.evaluate_values(list(range(1, 19)))).encode())
            digest.update(dealer.random_bytes(600))
        digest.update(root.random_bytes(100))
    return digest.hexdigest()


def test_dealing_is_identical_on_every_keystream_path(monkeypatch):
    with fastpath.forced(True):
        fast = dealing_digest()
    with fastpath.forced(False):
        reference = dealing_digest()
    monkeypatch.setattr(native, "library", lambda: None)
    with fastpath.forced(True), fastpath.forced_vector(True):
        numpy_lanes = dealing_digest()
    with fastpath.forced(True), fastpath.forced_vector(False):
        scalar = dealing_digest()
    assert fast == reference == numpy_lanes == scalar


def test_dealing_is_identical_without_numpy():
    probe = f"""
import importlib.util, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("dealing", {__file__!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from repro.crypto import aesbatch
assert not aesbatch.HAVE_NUMPY
print(aesbatch.native_keystream_runs(bytes(16), [0], [1]) is not None)
print(module.dealing_digest())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("REPRO_FASTPATH", None)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    native_ran, digest = done.stdout.split()
    # With a compiler present the keystream runs in C without numpy too.
    assert native_ran == str(native.library() is not None)
    with fastpath.forced(True):
        assert digest == dealing_digest()
