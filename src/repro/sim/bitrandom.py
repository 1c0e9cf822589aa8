"""Fast Bernoulli bit-mask sampling over Python big integers.

The MiniCast hot loop must decide, for every (receiver, chain-slot,
transmitter) triple, which of up to ~2000 sub-slot packets survive a lossy
link.  Doing that with one ``random.random()`` per packet is ruinously
slow in pure Python.  Instead we represent a chain's knowledge as a bit
mask in a single ``int`` and sample a whole mask of independent
Bernoulli(p) bits with a handful of ``getrandbits`` calls:

Write p in binary as ``0.b1 b2 ... bk``.  Starting from ``acc = 0`` and
processing bits **LSB-first**, update with a fresh uniform random word
``r`` each step::

    acc = (acc & r)   if b == 0
    acc = (acc | r)   if b == 1

After processing bit ``b_j`` (j = k..1) the density of ``acc`` is the
binary fraction ``0.b_j ... b_k``, so after the final (most significant)
step each bit of ``acc`` is independently one with probability ``p``
truncated to ``k`` binary digits.  ``k = 10`` gives ≈ 0.001 resolution at
10 ``getrandbits`` calls per mask, independent of mask width.

The test suite checks the fast sampler statistically against the obvious
per-bit reference sampler, which lives with the tests.
"""

from __future__ import annotations

from repro.errors import SimulationError

#: Default number of binary digits of the probability to honour.
DEFAULT_PRECISION = 10


def random_bitmask(rng, nbits: int, probability: float, precision: int = DEFAULT_PRECISION) -> int:
    """Integer with ``nbits`` independent Bernoulli(probability) bits.

    Args:
        rng: any object with ``getrandbits`` (stdlib Random, AesCtrDrbg).
        nbits: width of the mask.
        probability: per-bit probability of a 1, in [0, 1].
        precision: binary digits of ``probability`` to honour.
    """
    if nbits < 0:
        raise SimulationError(f"nbits must be >= 0, got {nbits}")
    if not 0.0 <= probability <= 1.0:
        raise SimulationError(f"probability must be in [0, 1], got {probability}")
    if precision < 1:
        raise SimulationError(f"precision must be >= 1, got {precision}")
    if nbits == 0:
        return 0
    if probability == 0.0:
        return 0
    if probability == 1.0:
        return (1 << nbits) - 1
    return random_bitmask_quantized(
        rng, nbits, quantize_probability(probability, precision), precision
    )


def quantize_probability(probability: float, precision: int = DEFAULT_PRECISION) -> int:
    """``probability`` as an integer numerator over ``2**precision``.

    Rounding to nearest keeps the expected density error at most
    ``2**-(precision+1)``.  Precomputing this once per link (instead of
    once per sampled mask) is the MiniCast hot loop's cheapest win.
    """
    return round(probability * (1 << precision))


def random_bitmask_quantized(
    rng, nbits: int, quantized: int, precision: int = DEFAULT_PRECISION
) -> int:
    """Bernoulli mask for a pre-quantized probability ``quantized / 2**precision``.

    Consumes exactly the same ``getrandbits`` draws as
    :func:`random_bitmask` with the equivalent float probability: zero
    draws for the degenerate all-zeros / all-ones cases, ``precision``
    draws otherwise.
    """
    if quantized <= 0:
        return 0
    if quantized >= (1 << precision):
        return (1 << nbits) - 1
    getrandbits = rng.getrandbits
    acc = 0
    # LSB-first over the binary digits of quantized/2**precision.
    for bit_index in range(precision):
        r = getrandbits(nbits)
        if (quantized >> bit_index) & 1:
            acc |= r
        else:
            acc &= r
    return acc
