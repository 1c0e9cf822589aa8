"""Deterministic chaos engineering for sharded campaigns.

The paper's resilience argument is threshold-cryptographic: Shamir
sharing over ``degree + 1`` collector points survives collector loss.
The sharded pipeline composes that argument hierarchically, but until
now treated every cell and worker process as immortal.  This module
injects faults on purpose and pins the degradation contract:

* **Fault plan** — a frozen, JSON-round-tripping :class:`FaultPlan` of
  :class:`FaultEvent` entries.  Four kinds:

  - ``crash``: the cell process is gone from ``round`` onwards — it
    neither deals its per-round aggregate nor serves its collector
    point.
  - ``straggle``: like a crash for ``duration`` rounds starting at
    ``round``, then the cell comes back.
  - ``corrupt``: the cell's *collector point submission* for the
    affected rounds is corrupted in transit.  Corruption is detected by
    genuine CBC-MAC verification (:mod:`repro.crypto.mac`) and the
    point dropped — a corrupted share is never merged into a total.
  - ``kill_worker``: the worker process running the cell's primary unit
    dies (``kills`` times).  In a spawn pool the process is hard-killed
    (``os._exit``), breaking the pool; serially the unit raises.
    Either way the :class:`~repro.analysis.campaign.CampaignExecutor`'s
    bounded retry re-runs the seeded unit bit-identically — a kill
    costs wall-clock, never data.

  Every effect is a pure function of ``(plan, seed)`` via
  :mod:`repro.sim.seeds`, so injections are bit-reproducible serial vs
  parallel.

* **Two loss channels, two defences.**  A cell that is down at round
  ``r`` loses two different things:

  1. its *dealer contribution* (the cell aggregate it would have dealt
     cross-cell) — recovered by **coded redundancy**: ``replication``
     copies of each cell's work unit run on sibling hosts under the
     *same* cell seed, so copy ``j`` of cell ``c`` (hosted on cell
     ``(c + j) % k``) reproduces the primary's stream bit-for-bit and
     stands in for it.  Only when every copy's host is down for a round
     is the contribution unrecoverable.
  2. its *collector point* (point ``c + 1`` of the cross-cell deal) —
     absorbed by **threshold tolerance**: every cell deals over all
     ``k`` points, so any ``⌊k/3⌋ + 1`` surviving points reconstruct
     the round's total bit-identically to the flat-deployment oracle
     (:func:`repro.analysis.sharding.cross_cell_aggregate`).  Up to
     ``k - (⌊k/3⌋ + 1)`` point losses per round are survivable.

* **Structured degradation.**  Rounds past either bound become
  :class:`DegradedRound` records; in strict mode the campaign raises
  :class:`~repro.errors.ChaosError` naming the offending round and
  cells (the CLI turns that into a one-line exit-1 failure).  With
  ``strict=False`` the campaign completes with ``None`` totals for the
  degraded rounds.  In no mode does a total past the bound get
  *computed wrong* — losses beyond threshold fail loudly, never
  silently.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from repro.analysis.campaign import CampaignExecutor, CampaignUnit
from repro.analysis.sharding import (
    CellResult,
    CellUnit,
    cross_cell_aggregate,
    degree_for_cell,
    plan_cell_units,
)
from repro.core.config import CryptoMode
from repro.core.metrics import RoundSummary
from repro.errors import AuthenticationError, ChaosError, SpecError
from repro.faultplan import FAULT_KINDS, FaultEvent, FaultPlan  # noqa: F401  (re-exported API)
from repro.field.prime_field import PrimeField
from repro.sim.seeds import child_seed
from repro.topology.graph import Topology
from repro.topology.testbeds import TestbedSpec

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "InjectedWorkerKill",
    "ChaosCellUnit",
    "DegradedRound",
    "ChaosResult",
    "survivable_losses",
    "run_chaos_campaign",
]

#: Exit code used when an injected kill hard-kills a spawn pool worker.
KILL_EXIT_CODE = 113


class InjectedWorkerKill(ChaosError):
    """An injected ``kill_worker`` fault felled this unit's attempt."""


def survivable_losses(num_cells: int) -> int:
    """Collector-point losses one cross-cell round tolerates: k - (⌊k/3⌋+1)."""
    threshold = degree_for_cell(num_cells) + 1
    return max(0, num_cells - threshold)


# -- fault-injecting work units ------------------------------------------------


@dataclass(frozen=True)
class ChaosCellUnit(CampaignUnit):
    """One copy of a cell's work unit, with optional kill injection.

    ``copy`` 0 is the primary; copies ``1..replication-1`` are the coded
    replicas, hosted on sibling cells.  Every copy wraps the *same*
    seeded :class:`~repro.analysis.sharding.CellUnit`, so all copies
    return bit-identical :class:`CellResult` payloads — that identity is
    what lets a replica stand in for a crashed primary.

    Kill injection only targets the primary: while ``attempt < kills``
    the attempt dies — hard (``os._exit``) inside a spawn pool worker,
    by raising :class:`InjectedWorkerKill` when run in-process — and the
    executor's bounded retry brings the unit back.
    """

    base: CellUnit
    copy: int = 0
    host: int = 0
    kills: int = 0

    def run(self) -> CellResult:
        return self.run_attempt(0)

    def run_attempt(self, attempt: int) -> CellResult:
        if attempt < self.kills:
            self._die(attempt)
        return self.base.run()

    def _die(self, attempt: int) -> None:
        import multiprocessing
        import os

        if multiprocessing.current_process().name != "MainProcess":
            os._exit(KILL_EXIT_CODE)
        raise InjectedWorkerKill(
            f"injected worker kill {attempt + 1}/{self.kills} "
            f"for cell {self.base.index} (copy {self.copy})"
        )


# -- degradation records -------------------------------------------------------


@dataclass(frozen=True)
class DegradedRound:
    """One round that degraded past exact reconstruction.

    Attributes:
        round: the campaign round index.
        lost_cells: the cells whose loss caused the degradation.
        surviving_points: collector points that survived the round.
        needed_points: the reconstruction threshold (``⌊k/3⌋ + 1``).
        reason: human-readable cause ("contribution unrecoverable ..."
            or "surviving collector points below ...").
    """

    round: int
    lost_cells: tuple[int, ...]
    surviving_points: int
    needed_points: int
    reason: str


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of a fault-injected sharded campaign.

    ``totals`` carry the cross-cell reconstructed deployment sums
    (``None`` for degraded rounds — never a wrong value); ``cells`` are
    the *effective* per-cell results after replica recovery (a round a
    cell lost with no surviving copy shows ``None``).  ``summaries``
    fold the degradation metrics into the standard per-round
    :class:`~repro.core.metrics.RoundSummary` stream.
    """

    cells: tuple[CellResult, ...]
    totals: tuple[int | None, ...]
    expected: tuple[int, ...]
    cross_degree: int
    iterations: int
    seed: int
    replication: int
    faults: FaultPlan
    degraded: tuple[DegradedRound, ...]
    summaries: tuple[RoundSummary, ...]
    lost_points: tuple[tuple[int, ...], ...]
    recovered: tuple[tuple[int, ...], ...]
    worker_retries: int
    units_run: int

    @property
    def num_cells(self) -> int:
        """How many cells the deployment was sliced into."""
        return len(self.cells)

    @property
    def num_nodes(self) -> int:
        """Total deployment size across all cells."""
        return sum(len(cell.node_ids) for cell in self.cells)

    @property
    def survivable_losses(self) -> int:
        """Collector-point losses one round tolerates: k - (⌊k/3⌋+1)."""
        return survivable_losses(self.num_cells)

    @property
    def matched_rounds(self) -> int:
        """Rounds whose total equals the flat deployment's true sum."""
        return sum(1 for a, b in zip(self.totals, self.expected) if a == b)

    @property
    def all_match(self) -> bool:
        """Every round survived its faults and reproduced the flat sum."""
        return self.matched_rounds == self.iterations

    @property
    def exact_under_loss(self) -> bool:
        """No wrong answers: every non-``None`` total is exactly right."""
        return all(
            total is None or total == want
            for total, want in zip(self.totals, self.expected)
        )

    @property
    def redundancy_overhead(self) -> float:
        """Work-unit inflation paid for coded redundancy (≈ replication)."""
        return self.units_run / self.num_cells


# -- fault compilation ---------------------------------------------------------


def _compile_faults(
    plan: FaultPlan, cells: int, iterations: int
) -> tuple[list[set[int]], list[set[int]], list[int]]:
    """Reduce a plan to per-cell effect sets.

    Returns ``(down, corrupt, kills)``: the rounds each cell's process
    is absent, the rounds each cell's collector submission is corrupted
    in transit, and how many attempts of each cell's primary unit die.
    """
    down: list[set[int]] = [set() for _ in range(cells)]
    corrupt: list[set[int]] = [set() for _ in range(cells)]
    kills = [0] * cells
    for event in plan.events:
        if event.kind == "crash":
            down[event.cell].update(range(event.round, iterations))
        elif event.kind == "straggle":
            down[event.cell].update(
                range(event.round, min(iterations, event.round + event.duration))
            )
        elif event.kind == "corrupt":
            corrupt[event.cell].update(
                range(event.round, min(iterations, event.round + event.duration))
            )
        else:  # kill_worker
            kills[event.cell] += event.kills
    return down, corrupt, kills


def _corruption_detected(
    seed: int, cell: int, round_index: int, value: int
) -> bool:
    """Genuinely detect an in-transit corruption with the library's MAC.

    The collector's submission ``(round, point, sum)`` is CBC-MAC'd
    under a per-cell key; the injected corruption flips a seeded byte of
    the message.  Detection is :func:`repro.crypto.mac.verify_mac`
    raising — the same authentication path a deployed collector would
    run — so "corrupt shares are dropped, never merged" rests on real
    crypto, not on bookkeeping.
    """
    from repro.crypto.aes import AES128
    from repro.crypto.mac import cbc_mac, verify_mac

    key = child_seed(seed, "chaos-mac", cell).to_bytes(8, "big") * 2
    cipher = AES128(key)
    message = (
        round_index.to_bytes(8, "big")
        + (cell + 1).to_bytes(8, "big")
        + value.to_bytes(32, "big")
    )
    tag = cbc_mac(cipher, message)
    flip = 1 + child_seed(seed, "chaos-tamper", cell, round_index) % 255
    tampered = bytes([message[0] ^ flip]) + message[1:]
    try:
        verify_mac(cipher, tampered, tag)
    except AuthenticationError:
        return True
    return False


# -- the campaign runner -------------------------------------------------------


def run_chaos_campaign(
    deployment: TestbedSpec | Topology,
    cells: int,
    iterations: int = 10,
    seed: int = 1,
    faults: FaultPlan | None = None,
    replication: int = 2,
    metrics: str = "summary",
    simulate: bool | None = None,
    crypto_mode: CryptoMode = CryptoMode.STUB,
    executor: CampaignExecutor | None = None,
    workers: int | None = None,
    max_attempts: int = 4,
    backoff_s: float = 0.0,
    strict: bool = True,
) -> ChaosResult:
    """Run a sharded campaign under an injected fault plan.

    Plans the usual seeded cell units, clones each one ``replication``
    times onto sibling hosts (coded redundancy), executes the fleet over
    the retrying :class:`~repro.analysis.campaign.CampaignExecutor`, and
    aggregates cross-cell with per-round collector-point losses applied.
    ``strict=True`` (the default) raises :class:`ChaosError` naming the
    first round whose losses exceed the survivable bound;
    ``strict=False`` returns a degraded result with ``None`` totals for
    those rounds instead.  Results are bit-identical serial vs parallel
    and invariant in ``max_attempts``/``backoff_s``: retries and
    replicas change *whether and when* a value arrives, never the value.
    """
    faults = FaultPlan() if faults is None else faults
    base_units = plan_cell_units(
        deployment,
        cells,
        iterations,
        seed,
        metrics=metrics,
        simulate=simulate,
        crypto_mode=crypto_mode,
    )
    k = len(base_units)
    if not 1 <= replication <= k:
        raise SpecError(
            f"replication must be within 1..{k} (the cell count), "
            f"got {replication}"
        )
    faults.validate_for(k, iterations)
    down, corrupt, kills = _compile_faults(faults, k, iterations)

    units: list[ChaosCellUnit] = []
    for base in base_units:
        for copy in range(replication):
            units.append(
                ChaosCellUnit(
                    base=base,
                    copy=copy,
                    host=(base.index + copy) % k,
                    kills=kills[base.index] if copy == 0 else 0,
                )
            )

    own_executor = executor is None
    if own_executor:
        executor = CampaignExecutor(workers=workers)
    retries_before = executor.retry_count
    try:
        raw = executor.run_units(
            units, max_attempts=max_attempts, backoff_base_s=backoff_s
        )
    except BrokenExecutor as error:
        raise ChaosError(
            f"worker pool did not survive injected kills within "
            f"{max_attempts} attempts per unit"
        ) from error
    finally:
        if own_executor:
            executor.close()
    worker_retries = executor.retry_count - retries_before

    by_cell = [
        raw[index * replication : (index + 1) * replication]
        for index in range(k)
    ]
    for index, copies in enumerate(by_cell):
        primary = copies[0]
        for copy, result in enumerate(copies[1:], start=1):
            if (result.sums, result.expected) != (primary.sums, primary.expected):
                raise ChaosError(
                    f"replica {copy} of cell {index} diverged from its "
                    f"primary — coded copies must be bit-identical"
                )

    # Per-round effects: which collector points are gone, which dealer
    # contributions were saved by a replica, which are unrecoverable.
    lost_points: list[set[int]] = [set() for _ in range(iterations)]
    recovered: list[list[int]] = [[] for _ in range(iterations)]
    unrecoverable: list[list[int]] = [[] for _ in range(iterations)]
    for r in range(iterations):
        for c in range(k):
            primary_down = r in down[c]
            copy_up = any(
                r not in down[(c + copy) % k] for copy in range(replication)
            )
            if primary_down and copy_up:
                recovered[r].append(c)
            if not copy_up:
                unrecoverable[r].append(c)
            if primary_down or r in corrupt[c]:
                lost_points[r].add(c)

    # Exercise the real authentication path for every injected corruption.
    for c in range(k):
        for r in sorted(corrupt[c]):
            value = by_cell[c][0].sums[r]
            if value is None:
                continue
            if not _corruption_detected(seed, c, r, value):
                raise ChaosError(
                    f"round {r}: corruption of cell {c}'s collector "
                    f"submission evaded MAC verification"
                )

    effective: list[CellResult] = []
    for c in range(k):
        primary = by_cell[c][0]
        sums = tuple(
            None if c in unrecoverable[r] else primary.sums[r]
            for r in range(iterations)
        )
        effective.append(
            CellResult(
                index=primary.index,
                node_ids=primary.node_ids,
                sums=sums,
                expected=primary.expected,
                rounds=primary.rounds,
            )
        )

    prime = PrimeField().prime
    expected = tuple(
        sum(cell.expected[r] for cell in effective) % prime
        for r in range(iterations)
    )

    degree = degree_for_cell(k)
    threshold = degree + 1
    num_points = max(k, threshold)
    degraded: list[DegradedRound] = []
    for r in range(iterations):
        surviving = num_points - len(lost_points[r])
        missing = [c for c in range(k) if effective[c].sums[r] is None]
        if missing:
            degraded.append(
                DegradedRound(
                    round=r,
                    lost_cells=tuple(missing),
                    surviving_points=surviving,
                    needed_points=threshold,
                    reason=(
                        "contribution unrecoverable (every coded copy of "
                        "the cell was down)"
                    ),
                )
            )
        elif surviving < threshold:
            degraded.append(
                DegradedRound(
                    round=r,
                    lost_cells=tuple(sorted(lost_points[r])),
                    surviving_points=surviving,
                    needed_points=threshold,
                    reason=(
                        "surviving collector points below the "
                        "reconstruction threshold"
                    ),
                )
            )
    if strict and degraded:
        first = degraded[0]
        raise ChaosError(
            f"round {first.round}: lost cells {list(first.lost_cells)} "
            f"leave {first.surviving_points}/{num_points} collector points "
            f"(need {first.needed_points}) — {first.reason}; the plan "
            f"exceeds the survivable bound of {num_points - threshold} "
            f"losses per round in {len(degraded)} round(s)"
        )

    totals, _ = cross_cell_aggregate(
        effective,
        iterations,
        seed,
        degree=degree,
        lost_points=[sorted(entry) for entry in lost_points],
    )

    summaries: list[RoundSummary] = []
    for r in range(iterations):
        missing = sum(1 for cell in effective if cell.sums[r] is None)
        summaries.append(
            RoundSummary(
                num_nodes=k,
                completed_count=num_points - len(lost_points[r]),
                correct_count=k - missing,
                all_correct=totals[r] is not None and totals[r] == expected[r],
                expected_aggregate=expected[r],
                aggregate=totals[r],
                num_sources=k,
                max_latency_us=None,
                mean_latency_us=None,
                mean_radio_on_us=0.0,
                max_radio_on_us=0,
                sharing_duration_us=0,
                reconstruction_duration_us=0,
                sharing_slots=0,
                reconstruction_slots=0,
                chain_length_sharing=num_points,
                chain_length_reconstruction=threshold,
                failure_count=len(lost_points[r]) + missing,
                lost_cells=len(lost_points[r]),
                recovered_cells=len(recovered[r]),
            )
        )

    return ChaosResult(
        cells=tuple(effective),
        totals=totals,
        expected=expected,
        cross_degree=degree,
        iterations=iterations,
        seed=seed,
        replication=replication,
        faults=faults,
        degraded=tuple(degraded),
        summaries=tuple(summaries),
        lost_points=tuple(tuple(sorted(entry)) for entry in lost_points),
        recovered=tuple(tuple(entry) for entry in recovered),
        worker_retries=worker_retries,
        units_run=len(units),
    )
