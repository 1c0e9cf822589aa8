"""Reference implementations several test modules hold the package to.

Nothing in ``src/repro`` runs these: the package reconstructs only
``P(0)``, lays out only grids, lines and the two testbeds, and chains
CBC-MAC on ints without ever producing CBC ciphertext.  They are
importable as ``oracles`` because ``tests/`` is on pytest's
``pythonpath`` (``pyproject.toml``).
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from repro.crypto.aes import AES128
from repro.errors import SecretSharingError, TopologyError
from repro.field import Polynomial, PrimeField, mod_inverse
from repro.field.prime_field import IntoElement
from repro.sss import Share, ShareAccumulator
from repro.topology.graph import Topology


def cbc_encrypt(cipher: AES128, iv: bytes, plaintext: bytes) -> bytes:
    """CBC encryption of a block-aligned plaintext, one block at a time:
    the definition ``repro.crypto.mac.cbc_mac``'s int chain is held to."""
    previous = iv
    ciphertext = b""
    for offset in range(0, len(plaintext), 16):
        block = bytes(a ^ b for a, b in zip(plaintext[offset : offset + 16], previous))
        previous = cipher.encrypt_block(block)
        ciphertext += previous
    return ciphertext


def accumulate(field: PrimeField, x: IntoElement, shares: Iterable[Share]) -> ShareAccumulator:
    """The share sum a holder of point ``x`` folds from ``shares``.

    Refuses a share dealt at another point and a dealer that
    contributes twice.
    """
    point = field(x)
    total = field(0)
    contributors = 0
    for share in shares:
        if share.x != point:
            raise SecretSharingError(
                f"share for x={share.x.value} added to accumulator of x={point.value}"
            )
        if (contributors >> share.dealer_id) & 1:
            raise SecretSharingError(
                f"dealer {share.dealer_id} contributed twice at x={point.value}"
            )
        total = total + share.y
        contributors |= 1 << share.dealer_id
    return ShareAccumulator(x=point, total=total, contributors=contributors)


def interpolate_polynomial(
    field: PrimeField,
    points: Sequence[tuple[IntoElement, IntoElement]],
) -> Polynomial:
    """Full interpolating polynomial through ``points`` (distinct x).

    Builds ``sum_i y_i * prod_{j != i} (x - x_j) / (x_i - x_j)`` with dense
    coefficient arithmetic.
    """
    xs = [field(x).value for x, _ in points]
    ys = [field(y).value for _, y in points]
    prime = field.prime
    result = Polynomial(field, [0])
    for i, (x_i, y_i) in enumerate(zip(xs, ys)):
        if y_i == 0:
            continue
        # Numerator polynomial prod_{j != i} (x - x_j), built incrementally.
        basis = Polynomial(field, [1])
        denominator = 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            basis = basis * Polynomial(field, [(-x_j) % prime, 1])
            denominator = denominator * ((x_i - x_j) % prime) % prime
        scale = y_i * mod_inverse(denominator, prime) % prime
        result = result + basis * scale
    return result


def random_geometric(
    num_nodes: int,
    width_m: float,
    height_m: float,
    seed: int = 0,
    min_separation_m: float = 1.0,
    max_attempts: int = 10_000,
) -> Topology:
    """Uniform random placement with a minimum pairwise separation.

    The separation constraint models the physical reality that two motes
    are never stacked on top of each other, and keeps the channel model
    inside its validity region (>= 1 m).
    """
    if num_nodes < 1:
        raise TopologyError(f"num_nodes must be >= 1, got {num_nodes}")
    if width_m <= 0 or height_m <= 0:
        raise TopologyError("area dimensions must be > 0")
    if min_separation_m < 0:
        raise TopologyError("min_separation must be >= 0")
    rng = random.Random(seed)
    positions: dict[int, tuple[float, float]] = {}
    attempts = 0
    while len(positions) < num_nodes:
        attempts += 1
        if attempts > max_attempts:
            raise TopologyError(
                f"could not place {num_nodes} nodes with separation "
                f"{min_separation_m} m in {width_m}x{height_m} m "
                f"after {max_attempts} attempts"
            )
        candidate = (rng.uniform(0, width_m), rng.uniform(0, height_m))
        if all(
            math.hypot(candidate[0] - x, candidate[1] - y) >= min_separation_m
            for x, y in positions.values()
        ):
            positions[len(positions)] = candidate
    return Topology(positions, name=f"rgg-{num_nodes}-seed{seed}")
