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
:class:`ShareAccumulator` therefore tracks contributors per point, and
:func:`reconstruct_aggregate` only combines points whose contributor sets
agree, choosing the largest such group.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Sequence

from repro.errors import ReconstructionError, SecretSharingError
from repro.field.lagrange import interpolate_constant
from repro.field.prime_field import FieldElement, PrimeField
from repro.sss.shares import Share


@dataclass(slots=True)
class ShareAccumulator:
    """Running share-sum at one public point, with contributor tracking.

    This is exactly the state a holder node keeps during the sharing
    phase: the field sum of received shares and the set of dealers that
    contributed.
    """

    x: FieldElement
    total: FieldElement
    contributors: set[int] = dataclass_field(default_factory=set)

    @classmethod
    def empty(cls, x: FieldElement) -> "ShareAccumulator":
        """Fresh accumulator for point ``x``."""
        return cls(x=x, total=x.field.zero(), contributors=set())

    def add(self, share: Share) -> None:
        """Fold one received share into the sum."""
        if share.x != self.x:
            raise SecretSharingError(
                f"share for x={share.x.value} added to accumulator of "
                f"x={self.x.value}"
            )
        if share.dealer_id in self.contributors:
            raise SecretSharingError(
                f"dealer {share.dealer_id} contributed twice at x={self.x.value}"
            )
        self.total = self.total + share.y
        self.contributors.add(share.dealer_id)

    @property
    def contributor_key(self) -> frozenset[int]:
        """Hashable contributor-set identity used for consistency grouping."""
        return frozenset(self.contributors)


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
    expected_contributors: frozenset[int] | None = None,
) -> AggregationResult:
    """Reconstruct the aggregate from per-point sums, fault-tolerantly.

    Groups accumulators by contributor set, picks the group that (a)
    matches ``expected_contributors`` when given, otherwise (b) has the
    most points (ties broken toward the larger contributor set — more
    secrets aggregated), and interpolates from ``degree + 1`` of them.

    Raises :class:`ReconstructionError` when no contributor-consistent
    group reaches the threshold — the fail-safe the module docstring
    describes.
    """
    threshold = degree + 1
    if not accumulators:
        raise ReconstructionError("no per-point sums available")

    groups: dict[frozenset[int], list[ShareAccumulator]] = {}
    for accumulator in accumulators:
        if not accumulator.contributors:
            continue
        groups.setdefault(accumulator.contributor_key, []).append(accumulator)

    if expected_contributors is not None:
        candidates = groups.get(frozenset(expected_contributors), [])
        if len(candidates) < threshold:
            raise ReconstructionError(
                f"only {len(candidates)} points carry the expected "
                f"contributor set (need {threshold})"
            )
        chosen = candidates
        chosen_key = frozenset(expected_contributors)
    else:
        viable = {
            key: group for key, group in groups.items() if len(group) >= threshold
        }
        if not viable:
            best = max((len(g) for g in groups.values()), default=0)
            raise ReconstructionError(
                f"no contributor-consistent group reaches threshold "
                f"{threshold} (best has {best} points)"
            )
        chosen_key = max(viable, key=lambda key: (len(viable[key]), len(key)))
        chosen = viable[chosen_key]

    xs_seen = {accumulator.x.value for accumulator in chosen}
    if len(xs_seen) != len(chosen):
        raise ReconstructionError("duplicate points within a contributor group")

    points = [(a.x, a.total) for a in chosen[:threshold]]
    value = interpolate_constant(field, points)
    return AggregationResult(
        value=value,
        contributors=chosen_key,
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
