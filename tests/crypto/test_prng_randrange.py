"""``AesCtrDrbg.randrange`` reads buffered bytes in place, stream-neutrally.

The in-place read must consume exactly the bytes, and reject exactly the
candidates, of the plain ``getrandbits`` loop it replaces — on every
path (reference, scalar fast, lane fast) and at every buffer position,
including reads that straddle a refill.
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.crypto.prng import AesCtrDrbg


def getrandbits_randrange(drbg: AesCtrDrbg, bound: int) -> tuple[int, int]:
    """The rejection loop as it stood before the in-place read: (value, rejections)."""
    bits = bound.bit_length()
    rejections = 0
    while True:
        candidate = drbg.getrandbits(bits)
        if candidate < bound:
            return candidate, rejections
        rejections += 1


#: 2**60 + 1 rejects about half of all 61-bit candidates; 2**20 + 1
#: draws 3 bytes at a time, so reads straddle every 16-byte block.
BOUNDS = [(1 << 60) + 1, (1 << 20) + 1, (1 << 61) - 1, 97, 1, 256, (1 << 128) + 3]


@pytest.mark.parametrize("fast,vector", [(False, False), (True, False), (True, True)])
@pytest.mark.parametrize("bound", BOUNDS)
def test_stream_identical_to_getrandbits_loop(fast, vector, bound):
    with fastpath.forced(fast), fastpath.forced_vector(vector):
        drbg = AesCtrDrbg.from_seed(b"randrange-%d" % bound)
        reference = AesCtrDrbg.from_seed(b"randrange-%d" % bound)
    rejections = 0
    for step in range(300):
        # Odd-sized reads in between move the buffer offset to every
        # alignment, so draws land on, inside and across refills.
        skew = step % 7
        assert drbg.random_bytes(skew) == reference.random_bytes(skew)
        expected, rejected = getrandbits_randrange(reference, bound)
        rejections += rejected
        assert drbg.randrange(bound) == expected
    assert drbg.random_bytes(64) == reference.random_bytes(64)
    if bound == (1 << 60) + 1:
        assert rejections > 50


def test_draws_after_prefill_match_unprefilled_stream():
    prime = (1 << 61) - 1
    with fastpath.forced(True), fastpath.forced_vector(True):
        plain = AesCtrDrbg.from_seed(b"dealer")
        prefilled = AesCtrDrbg.from_seed(b"dealer")
        prefilled.prefill(15 * 8 + 8)  # a dealer's worth of draws, then some
        assert [prefilled.randrange(prime) for _ in range(40)] == [
            getrandbits_randrange(plain, prime)[0] for _ in range(40)
        ]
