"""Sharded scale-out campaigns: MPC cells plus a cross-cell aggregation round.

The paper's protocol aggregates one broadcast domain; the ROADMAP's
north-star is million-node scenarios no single cell (or single worker's
``RoundMetrics`` payload) can carry.  This module composes the protocol
hierarchically, the way related work federates IoT MPC (MOZAIK's
partitioned engines, von Maltitz & Carle's local-group-then-global
architecture):

1. **Partition** — :func:`repro.topology.cells.partition_nodes` slices
   the deployment into spatially contiguous cells (deterministic in
   (topology, cells)).
2. **Cell rounds** — every cell is an independent seeded
   :class:`~repro.analysis.campaign.CampaignUnit` under
   ``child_seed(seed, "cell", index)`` (:func:`repro.sim.seeds.cell_seeds`),
   so the campaign fans out over the existing
   :class:`~repro.analysis.campaign.CampaignExecutor` machinery and
   serial ≡ parallel holds bit-for-bit.  Two cell flavours:

   * ``simulate=True`` — the full S4 engine on the cell's sub-testbed
     (radio schedule, MiniCast floods, real metrics);
   * ``simulate=False`` — the MPC data path only (batched Shamir
     splits over threshold collector points, per-point sums, batched
     reconstruction), which is what scales a demo to 10k+ nodes.

3. **Cross-cell round** — each cell re-deals its per-round aggregate as
   a Shamir secret (``ShamirScheme.split_many`` batched over rounds),
   per-point share sums are combined across cells, and
   :func:`repro.sss.aggregation.reconstruct_many_from_sums` recovers the
   deployment-wide totals for the whole campaign in one batched pass.
   No cell ever reveals which node contributed what, and no single
   party sees another cell's raw aggregate share.

Workers return :class:`CellResult` payloads whose metrics default to the
streaming :class:`~repro.core.metrics.RoundSummary` form — a fixed
handful of scalars per round, however large the cell — so IPC stays flat
as deployments grow (``metrics="full"`` keeps dense ``RoundMetrics`` for
small-scale debugging).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.campaign import CampaignUnit
from repro.analysis.experiments import build_engines, round_secrets, run_rounds

# The paper's ⌊n/3⌋ rule, applied to a cell's members and to the cells
# of the cross-cell round alike.
from repro.analysis.experiments import degree_for as degree_for_cell
from repro.core.config import CryptoMode
from repro.core.metrics import (
    METRICS_MODES,
    RoundMetrics,
    RoundSummary,
    consensus_aggregate,
)
from repro.crypto.prng import AesCtrDrbg
from repro.errors import ConfigurationError
from repro.field.prime_field import PrimeField
from repro.sim.seeds import cell_seeds, child_seed
from repro.sss.aggregation import reconstruct_many_from_sums
from repro.sss.scheme import ShamirScheme
from repro.topology.cells import cell_subspec, partition_nodes
from repro.topology.graph import Topology
from repro.topology.testbeds import TestbedSpec


def _round_rng(cell_seed: int, iteration: int) -> AesCtrDrbg:
    """The dealer DRBG for one cell round (chunk- and worker-invariant)."""
    return AesCtrDrbg.from_seed(child_seed(cell_seed, "round", iteration))


def cell_point_sums(
    values: Sequence[int],
    dealer_ids: Sequence[int],
    degree: int,
    rng: AesCtrDrbg,
) -> dict[int, int]:
    """One cell round's share algebra: deal every value, sum per point.

    Each member deals its value over the ``degree + 1`` collector points
    ``1..degree+1`` (batched, :meth:`ShamirScheme.split_many`) and every
    collector sums what it receives.  Any ``degree + 1`` point sums
    reconstruct the cell's sum; the caller does that, so batch and
    service folds each keep their own reconstruction call.
    """
    scheme = ShamirScheme(PrimeField(), degree)
    points = list(range(1, degree + 2))
    prime = scheme.field.prime
    point_sums = dict.fromkeys(points, 0)
    batches = scheme.split_many(list(values), points, rng, dealer_ids=list(dealer_ids))
    for shares in batches:
        for share in shares:
            x = share.x.value
            point_sums[x] = (point_sums[x] + share.y.value) % prime
    return point_sums


def _mpc_cell_rounds(
    node_ids: Sequence[int],
    iterations: int,
    seed: int,
    degree: int,
) -> tuple[list[int], list[int]]:
    """Run one cell's aggregation rounds on the MPC data path only.

    Exactly the share algebra of a protocol round, minus the radio
    (:func:`cell_point_sums` per round); the batched reconstruction then
    recovers every round's cell sum in one pass.  Returns
    ``(sums, expected)`` per round.
    """
    field = PrimeField()
    sums_batch: list[dict[int, int]] = []
    expected: list[int] = []
    for iteration in range(iterations):
        secrets = round_secrets(node_ids, iteration)
        sums_batch.append(
            cell_point_sums(
                list(secrets.values()),
                list(secrets),
                degree,
                _round_rng(seed, iteration),
            )
        )
        expected.append(sum(secrets.values()) % field.prime)
    values = reconstruct_many_from_sums(field, sums_batch, degree)
    return [value.value for value in values], expected


@dataclass(frozen=True)
class CellResult:
    """One cell's contribution to a sharded campaign.

    Attributes:
        index: cell index in partition order.
        node_ids: the cell's members.
        sums: per-round reconstructed cell aggregates (``None`` where an
            engine-simulated round failed to reconstruct).
        expected: per-round true sums over the cell's members.
        rounds: per-round metrics payload — streaming
            :class:`RoundSummary` by default, dense :class:`RoundMetrics`
            under ``metrics="full"``, empty for MPC-only cells (no radio
            schedule to measure).
    """

    index: int
    node_ids: tuple[int, ...]
    sums: tuple[int | None, ...]
    expected: tuple[int, ...]
    rounds: tuple[RoundSummary, ...] | tuple[RoundMetrics, ...] = ()

    @property
    def all_match(self) -> bool:
        """Every round's aggregate equals the cell's true sum."""
        return all(a == b for a, b in zip(self.sums, self.expected))


@dataclass(frozen=True)
class CellUnit(CampaignUnit):
    """One MPC cell of a sharded campaign, as a picklable work unit.

    The cell's entire round stream derives from
    ``child_seed(campaign seed, "cell", index)`` — carried here as
    ``seed`` — so results are independent of which worker runs the unit
    and of how many sibling cells exist.
    """

    index: int
    node_ids: tuple[int, ...]
    iterations: int
    seed: int  # the per-cell child seed, not the campaign seed
    degree: int
    metrics: str = "summary"
    spec: TestbedSpec | None = None  # set → simulate the full S4 engine
    crypto_mode: CryptoMode = CryptoMode.STUB

    def run(self) -> CellResult:
        if self.spec is None:
            sums, expected = _mpc_cell_rounds(
                self.node_ids, self.iterations, self.seed, self.degree
            )
            return CellResult(
                index=self.index,
                node_ids=self.node_ids,
                sums=tuple(sums),
                expected=tuple(expected),
            )
        _, s4 = build_engines(
            self.spec, crypto_mode=self.crypto_mode, degree=self.degree
        )
        rounds = run_rounds(s4, self.node_ids, self.iterations, self.seed)
        expected = tuple(metrics.expected_aggregate for metrics in rounds)
        if self.metrics == "summary":
            # Reduce first; the summaries already carry the consensus
            # aggregate, so the per-node maps are scanned exactly once.
            payload = tuple(RoundSummary.from_metrics(m) for m in rounds)
            sums = tuple(summary.aggregate for summary in payload)
        else:
            payload = tuple(rounds)
            sums = tuple(consensus_aggregate(metrics) for metrics in rounds)
        return CellResult(
            index=self.index,
            node_ids=self.node_ids,
            sums=sums,
            expected=expected,
            rounds=payload,
        )


@dataclass(frozen=True)
class ShardedResult:
    """Deployment-wide outcome of a sharded campaign.

    ``totals`` are the cross-cell reconstructed aggregates per round
    (``None`` where any cell failed that round); ``expected`` the true
    deployment sums.  The acceptance property is :attr:`all_match`:
    totals reproduce the flat deployment's sums bit-for-bit.
    """

    cells: tuple[CellResult, ...]
    totals: tuple[int | None, ...]
    expected: tuple[int, ...]
    cross_degree: int
    iterations: int
    seed: int

    @property
    def num_cells(self) -> int:
        """How many cells the deployment was sliced into."""
        return len(self.cells)

    @property
    def num_nodes(self) -> int:
        """Total deployment size across all cells."""
        return sum(len(cell.node_ids) for cell in self.cells)

    @property
    def matched_rounds(self) -> int:
        """Rounds whose cross-cell total equals the true deployment sum."""
        return sum(1 for a, b in zip(self.totals, self.expected) if a == b)

    @property
    def all_match(self) -> bool:
        """Every round reproduced the flat deployment's aggregate exactly."""
        return self.matched_rounds == self.iterations


def flat_expected_sums(
    node_ids: Sequence[int], iterations: int
) -> tuple[int, ...]:
    """The flat (unsharded) deployment's true aggregate per round.

    This is the oracle the acceptance tests compare against: per-round
    secrets are pure functions of (node id, iteration), so the flat
    deployment's expected aggregate never needs the flat campaign run.
    """
    prime = PrimeField().prime
    return tuple(
        sum(round_secrets(node_ids, iteration).values()) % prime
        for iteration in range(iterations)
    )


def plan_cell_units(
    deployment: TestbedSpec | Topology,
    cells: int,
    iterations: int,
    seed: int,
    metrics: str = "summary",
    simulate: bool | None = None,
    crypto_mode: CryptoMode = CryptoMode.STUB,
) -> list[CellUnit]:
    """Decompose a deployment into one seeded work unit per cell.

    ``deployment`` may be a bare :class:`Topology` (MPC-only cells) or a
    :class:`TestbedSpec`; ``simulate=True`` (the default for specs) runs
    each cell on the full S4 engine over its carved sub-testbed.
    """
    if metrics not in METRICS_MODES:
        raise ConfigurationError(
            f"metrics must be one of {METRICS_MODES}, got {metrics!r}"
        )
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    spec = deployment if isinstance(deployment, TestbedSpec) else None
    topology = spec.topology if spec is not None else deployment
    if not isinstance(topology, Topology):
        raise ConfigurationError(
            f"deployment must be a TestbedSpec or Topology, "
            f"got {type(deployment).__name__}"
        )
    if simulate is None:
        simulate = spec is not None
    if simulate and spec is None:
        raise ConfigurationError(
            "simulate=True needs a TestbedSpec (channel + NTX parameters)"
        )
    partition = partition_nodes(topology, cells)
    seeds = cell_seeds(seed, cells)
    units = []
    for index, (node_ids, unit_seed) in enumerate(zip(partition, seeds)):
        units.append(
            CellUnit(
                index=index,
                node_ids=node_ids,
                iterations=iterations,
                seed=unit_seed,
                degree=degree_for_cell(len(node_ids)),
                metrics=metrics,
                spec=(
                    cell_subspec(spec, node_ids, index) if simulate else None
                ),
                crypto_mode=crypto_mode,
            )
        )
    return units


def cross_cell_aggregate(
    cell_results: Sequence[CellResult],
    iterations: int,
    seed: int,
    degree: int | None = None,
    lost_points: Sequence[Iterable[int]] | None = None,
) -> tuple[tuple[int | None, ...], int]:
    """Combine per-cell sums into deployment totals via a shared MPC round.

    Each cell deals its per-round aggregate over **one collector point
    per cell** (padded to ``degree + 1`` points for tiny deployments) in
    one batched :meth:`~repro.sss.scheme.ShamirScheme.split_many` call
    covering the whole campaign; the per-point sums are folded across
    cells and one batched
    :func:`~repro.sss.aggregation.reconstruct_many_from_sums` pass
    recovers every round's total.  Because a dealer's coefficients are
    drawn *before* evaluation at the points, dealing over all ``k``
    points leaves each cell's DRBG stream — and therefore every no-loss
    total — bit-identical to a ``degree + 1``-point deal, while exact
    field interpolation makes reconstruction from **any**
    ``degree + 1`` surviving points bit-identical too.

    ``lost_points`` (one entry per round) names the cell indices whose
    collector point did not survive that round; point ``x`` serves cell
    ``x - 1``, and padding points belong to no cell and never fail.  A
    round tolerates up to ``k - (degree + 1)`` lost points.  Rounds
    where any cell failed to produce an aggregate, or where fewer than
    ``degree + 1`` points survive, yield ``None``.

    Returns ``(totals, degree)``.
    """
    num_cells = len(cell_results)
    if degree is None:
        degree = degree_for_cell(num_cells)
    field = PrimeField()
    scheme = ShamirScheme(field, degree)
    threshold = degree + 1
    points = list(range(1, max(num_cells, threshold) + 1))
    prime = field.prime

    if lost_points is None:
        lost: list[frozenset[int]] = [frozenset()] * iterations
    else:
        if len(lost_points) != iterations:
            raise ConfigurationError(
                f"lost_points needs one entry per round: "
                f"expected {iterations}, got {len(lost_points)}"
            )
        lost = [frozenset(entry) for entry in lost_points]
    survivors = [
        [x for x in points if x - 1 >= num_cells or x - 1 not in lost[r]]
        for r in range(iterations)
    ]

    live = [
        round_index
        for round_index in range(iterations)
        if len(survivors[round_index]) >= threshold
        and all(cell.sums[round_index] is not None for cell in cell_results)
    ]
    point_sums = [dict.fromkeys(survivors[r], 0) for r in live]
    for cell in cell_results:
        rng = AesCtrDrbg.from_seed(child_seed(seed, "cross-cell", cell.index))
        # One batched deal covers the cell's full round stream; dealing
        # every round (not just live ones) keeps each cell's draw order
        # independent of *other* cells' failures.
        batches = scheme.split_many(
            [cell.sums[r] if cell.sums[r] is not None else 0 for r in range(iterations)],
            points,
            rng,
            dealer_ids=[cell.index] * iterations,
        )
        for position, round_index in enumerate(live):
            sums = point_sums[position]
            for share in batches[round_index]:
                x = share.x.value
                if x in sums:
                    sums[x] = (sums[x] + share.y.value) % prime
    values = reconstruct_many_from_sums(field, point_sums, degree)
    totals: list[int | None] = [None] * iterations
    for position, round_index in enumerate(live):
        totals[round_index] = values[position].value
    return tuple(totals), degree
