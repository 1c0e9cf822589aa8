"""Tests for the fast Bernoulli bit-mask sampler."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.bitrandom import random_bitmask

#: Per-byte set-bit positions: table[b] lists the positions (0-7) of the
#: ones in byte value ``b``.
_BYTE_BITS = [tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)]


def exact_random_bitmask(rng, nbits: int, probability: float) -> int:
    """Reference per-bit sampler (slow; for tiny masks)."""
    if nbits < 0:
        raise SimulationError(f"nbits must be >= 0, got {nbits}")
    if not 0.0 <= probability <= 1.0:
        raise SimulationError(f"probability must be in [0, 1], got {probability}")
    mask = 0
    for bit in range(nbits):
        if rng.random() < probability:
            mask |= 1 << bit
    return mask


def bit_indices(mask: int) -> list[int]:
    """Positions of set bits, ascending, for reading masks in tests.

    Linear in the mask width: one ``to_bytes`` conversion plus a
    per-byte table lookup, so dense 2000-bit chain masks stay cheap.
    """
    if mask < 0:
        raise SimulationError(f"mask must be >= 0, got {mask}")
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [
        8 * index + bit for index, byte in enumerate(raw) if byte for bit in _BYTE_BITS[byte]
    ]


def mask_from_indices(indices) -> int:
    """Inverse of :func:`bit_indices`."""
    mask = 0
    for index in indices:
        if index < 0:
            raise SimulationError(f"bit index must be >= 0, got {index}")
        mask |= 1 << index
    return mask


class TestEdgeCases:
    def test_zero_probability(self):
        assert random_bitmask(random.Random(0), 100, 0.0) == 0

    def test_one_probability(self):
        assert random_bitmask(random.Random(0), 100, 1.0) == (1 << 100) - 1

    def test_zero_bits(self):
        assert random_bitmask(random.Random(0), 0, 0.5) == 0

    def test_mask_within_width(self):
        rng = random.Random(1)
        for _ in range(50):
            assert random_bitmask(rng, 64, 0.7) < (1 << 64)

    def test_invalid_args(self):
        rng = random.Random(0)
        with pytest.raises(SimulationError):
            random_bitmask(rng, -1, 0.5)
        with pytest.raises(SimulationError):
            random_bitmask(rng, 10, 1.5)
        with pytest.raises(SimulationError):
            random_bitmask(rng, 10, 0.5, precision=0)

    def test_tiny_probability_rounds_to_zero(self):
        # With 8-bit precision, p < 2**-9 quantizes to the empty mask.
        assert random_bitmask(random.Random(0), 64, 0.0001, precision=8) == 0


class TestDensity:
    @pytest.mark.parametrize("probability", [0.125, 0.25, 0.5, 0.75, 0.9])
    def test_mean_density_matches(self, probability):
        rng = random.Random(42)
        nbits = 4096
        total = sum(
            random_bitmask(rng, nbits, probability).bit_count()
            for _ in range(30)
        )
        observed = total / (30 * nbits)
        assert abs(observed - probability) < 0.02

    def test_exact_powers_of_two_are_exact(self):
        # p = 0.5 uses exactly one getrandbits and is unbiased.
        rng = random.Random(7)
        nbits = 8192
        density = random_bitmask(rng, nbits, 0.5).bit_count() / nbits
        assert abs(density - 0.5) < 0.02

    def test_agrees_with_exact_sampler(self):
        fast_rng = random.Random(3)
        slow_rng = random.Random(3)
        nbits = 2048
        fast = sum(
            random_bitmask(fast_rng, nbits, 0.3).bit_count() for _ in range(40)
        ) / (40 * nbits)
        slow = sum(
            exact_random_bitmask(slow_rng, nbits, 0.3).bit_count()
            for _ in range(40)
        ) / (40 * nbits)
        assert abs(fast - slow) < 0.02

    def test_bits_independent_across_positions(self):
        # Each position should be set about p of the time.
        rng = random.Random(11)
        nbits = 64
        counts = [0] * nbits
        rounds = 400
        for _ in range(rounds):
            mask = random_bitmask(rng, nbits, 0.5)
            for i in range(nbits):
                counts[i] += (mask >> i) & 1
        for count in counts:
            assert 0.3 < count / rounds < 0.7


class TestExactSampler:
    def test_validation(self):
        with pytest.raises(SimulationError):
            exact_random_bitmask(random.Random(0), -1, 0.5)
        with pytest.raises(SimulationError):
            exact_random_bitmask(random.Random(0), 5, 2.0)

    @given(probability=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20)
    def test_always_within_width(self, probability):
        mask = exact_random_bitmask(random.Random(0), 32, probability)
        assert 0 <= mask < (1 << 32)


class TestIndexHelpers:
    def test_roundtrip(self):
        indices = [0, 5, 17, 63]
        assert bit_indices(mask_from_indices(indices)) == indices

    def test_empty(self):
        assert bit_indices(0) == []
        assert mask_from_indices([]) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(SimulationError):
            mask_from_indices([-1])

    def test_dense_wide_masks_linear(self):
        # Regression for the O(width²) shift loop: a dense 2048-bit mask
        # must decode correctly (and in linear time — the old loop
        # re-sliced the big int once per bit position).
        width = 2048
        dense = (1 << width) - 1
        assert bit_indices(dense) == list(range(width))
        sparse = mask_from_indices([0, 1, 77, 1024, 2047])
        assert bit_indices(sparse) == [0, 1, 77, 1024, 2047]
        rng = random.Random(7)
        for _ in range(10):
            mask = rng.getrandbits(width)
            indices = bit_indices(mask)
            assert mask_from_indices(indices) == mask
            assert len(indices) == mask.bit_count()
            assert indices == sorted(indices)

    def test_negative_mask_rejected(self):
        with pytest.raises(SimulationError):
            bit_indices(-1)
