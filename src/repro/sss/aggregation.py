"""Privacy-preserving aggregation on top of Shamir shares.

The PPDA construction the paper uses: every source ``i`` deals a random
degree-``p`` polynomial ``P_i`` with ``P_i(0) = S_i`` and sends ``P_i(x_j)``
to the holder of point ``x_j``.  Each holder *sums* what it receives:

    Y_j = sum_i P_i(x_j) = (sum_i P_i)(x_j) = P_s(x_j)

so the per-point sums are themselves shares of the sum polynomial ``P_s``,
and any ``p + 1`` of them interpolate the aggregate ``P_s(0) = sum_i S_i``
— without any holder ever seeing an individual secret.

The subtlety a real system must handle (and the reason S4's fault
tolerance needs care) is *consistency*: the sums ``Y_j`` only lie on a
common polynomial if they were built from the **same contributor set**.
:class:`ShareAccumulator` therefore carries a contributor bitmap per
point, and :func:`reconstruct_aggregate` only combines points whose
bitmaps agree, choosing the largest such group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ReconstructionError
from repro.field.lagrange import interpolate_constant
from repro.field.prime_field import FieldElement, PrimeField


@dataclass(frozen=True, slots=True)
class ShareAccumulator:
    """Share sum at one public point, with its contributor bitmap.

    This is exactly the state a holder node keeps during the sharing
    phase: the field sum of received shares and a bitmap with bit ``i``
    set when dealer ``i`` contributed.
    """

    x: FieldElement
    total: FieldElement
    contributors: int


@dataclass(frozen=True, slots=True)
class AggregationResult:
    """Outcome of a fault-tolerant aggregate reconstruction.

    Attributes:
        value: the reconstructed aggregate sum.
        contributors: the dealer set whose secrets are inside ``value``.
        points_used: how many consistent points the interpolation used.
        points_available: how many candidate points existed in total.
    """

    value: FieldElement
    contributors: frozenset[int]
    points_used: int
    points_available: int


def reconstruct_aggregate(
    field: PrimeField,
    accumulators: Sequence[ShareAccumulator],
    degree: int,
) -> AggregationResult:
    """Reconstruct the aggregate from per-point sums, fault-tolerantly.

    Groups accumulators by contributor bitmap, picks the group with the
    most points (ties broken toward the larger contributor set — more
    secrets aggregated, then toward the group seen first), and
    interpolates from ``degree + 1`` of them.

    Raises :class:`ReconstructionError` when no contributor-consistent
    group reaches the threshold — the fail-safe the module docstring
    describes.
    """
    threshold = degree + 1
    if not accumulators:
        raise ReconstructionError("no per-point sums available")

    groups: dict[int, list[ShareAccumulator]] = {}
    for accumulator in accumulators:
        if accumulator.contributors:
            groups.setdefault(accumulator.contributors, []).append(accumulator)

    viable = {mask: group for mask, group in groups.items() if len(group) >= threshold}
    if not viable:
        best = max((len(g) for g in groups.values()), default=0)
        raise ReconstructionError(
            f"no contributor-consistent group reaches threshold "
            f"{threshold} (best has {best} points)"
        )
    chosen_mask = max(viable, key=lambda mask: (len(viable[mask]), mask.bit_count()))
    chosen = viable[chosen_mask]

    xs_seen = {accumulator.x.value for accumulator in chosen}
    if len(xs_seen) != len(chosen):
        raise ReconstructionError("duplicate points within a contributor group")

    points = [(a.x, a.total) for a in chosen[:threshold]]
    value = interpolate_constant(field, points)
    return AggregationResult(
        value=value,
        contributors=frozenset(
            node for node in range(chosen_mask.bit_length()) if (chosen_mask >> node) & 1
        ),
        points_used=len(chosen),
        points_available=len(accumulators),
    )


def reconstruct_from_sums(
    field: PrimeField,
    sums: Mapping[int, int],
    degree: int,
) -> FieldElement:
    """Convenience reconstruction from raw ``{x_value: sum_value}`` pairs.

    Assumes the caller already knows the sums are contributor-consistent
    (e.g. unit tests, or S3 with verified full delivery).
    """
    threshold = degree + 1
    if len(sums) < threshold:
        raise ReconstructionError(
            f"need {threshold} sums for degree {degree}, got {len(sums)}"
        )
    items = sorted(sums.items())[:threshold]
    points = [(field(x), field(y)) for x, y in items]
    return interpolate_constant(field, points)


def reconstruct_many_from_sums(
    field: PrimeField,
    sums_batch: Sequence[Mapping[int, int]],
    degree: int,
) -> list[FieldElement]:
    """Batched :func:`reconstruct_from_sums` over many rounds' sums.

    The batched reconstruction entry point for campaign post-processing:
    one Lagrange weight vector is computed (and cached in
    :data:`repro.field.lagrange.SHARED_WEIGHTS`) per distinct point set
    and reused across the whole batch — with a fixed collector set that
    is a single weight computation for an arbitrarily long campaign.
    Results are value-identical to calling :func:`reconstruct_from_sums`
    once per entry.
    """
    from repro.field.lagrange import SHARED_WEIGHTS

    threshold = degree + 1
    prime = field.prime
    results: list[FieldElement] = []
    for sums in sums_batch:
        if len(sums) < threshold:
            raise ReconstructionError(
                f"need {threshold} sums for degree {degree}, got {len(sums)}"
            )
        items = sorted(sums.items())[:threshold]
        xs = tuple(x % prime for x, _ in items)
        weights = SHARED_WEIGHTS.weight_values(prime, xs, 0)
        total = 0
        for (_, y), weight in zip(items, weights):
            total += weight * (y % prime)
        results.append(FieldElement(field, total % prime))
    return results
