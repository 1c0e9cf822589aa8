"""Deterministic window aggregation: the pure core of the daemon.

A billing window's total is a **pure function of the accepted submission
set and the campaign seed** — nothing else.  That single property is
what makes crash recovery bit-identical: a daemon that replays its
journal holds exactly the accepted set the dead daemon held, so
re-closing the window re-derives the same total bit for bit, no matter
where the kill landed.

Determinism is enforced structurally:

* Accepted submissions are sorted by ``(device, seq)`` before slicing,
  so arrival order (and therefore scheduling, backpressure and retry
  interleavings) cannot leak into the aggregate.
* The sorted set is sliced into contiguous MPC cells and each cell runs
  the batched Shamir deal of the sharded campaign layer
  (:func:`repro.analysis.sharding.cell_point_sums`) under
  ``child_seed(window_seed, "cell", index)``.
* Cell sums fold through :func:`repro.analysis.sharding.cross_cell_aggregate`
  — the same cross-cell round batch campaigns use — under the window
  seed, so the service path and the batch ``metering`` oracle share one
  aggregation code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.sharding import (
    CellResult,
    cell_point_sums,
    cross_cell_aggregate,
    degree_for_cell,
)
from repro.crypto.prng import AesCtrDrbg
from repro.errors import ServiceError
from repro.field.prime_field import PrimeField
from repro.sim.seeds import child_seed
from repro.sss.aggregation import reconstruct_many_from_sums
from repro.service.wire import ShareSubmission

__all__ = [
    "WindowAggregate",
    "aggregate_shards",
    "aggregate_window",
    "window_seed",
]


def window_seed(seed: int, window: int) -> int:
    """The one derivation rule for a window's aggregation seed.

    Mirrors :func:`repro.sim.seeds.cell_seeds`' discipline: the seed
    depends only on the campaign seed and the *absolute* window index,
    never on how many windows closed before or which daemon incarnation
    closes this one.
    """
    return child_seed(seed, "service-window", window)


@dataclass(frozen=True, slots=True)
class WindowAggregate:
    """The pure aggregation outcome for one window's accepted set.

    ``total`` is the cross-cell reconstructed aggregate (``None`` only
    for an empty window), ``expected`` the plain modular-sum oracle over
    the same submissions; the crash-safety tests assert they are equal
    and that both are invariant under kill/restart.
    """

    total: int | None
    expected: int
    cells: int
    degree: int


def _cell_sum(
    values: Sequence[int],
    dealer_ids: Sequence[int],
    cell_seed: int,
) -> int:
    """One cell's MPC share-algebra sum (the batch layer's cell round)."""
    degree = degree_for_cell(len(values))
    rng = AesCtrDrbg.from_seed(child_seed(cell_seed, "round", 0))
    point_sums = cell_point_sums(values, dealer_ids, degree, rng)
    (value,) = reconstruct_many_from_sums(PrimeField(), [point_sums], degree)
    return value.value


def _fold_cells(
    cells: list[tuple[int, list[ShareSubmission]]], seed: int, window: int
) -> WindowAggregate:
    """Deal each ``(cell index, ordered submissions)`` cell, then fold.

    Every cell's deal is seeded by ``child_seed(window_seed, "cell",
    index)`` and the cell sums fold through :func:`cross_cell_aggregate`
    under the window seed.
    """
    if not cells:
        return WindowAggregate(total=None, expected=0, cells=0, degree=0)
    prime = PrimeField().prime
    wseed = window_seed(seed, window)
    cell_results: list[CellResult] = []
    for index, ordered in cells:
        values = [s.value % prime for s in ordered]
        cell_sum = _cell_sum(
            values,
            [s.device for s in ordered],
            child_seed(wseed, "cell", index),
        )
        cell_results.append(
            CellResult(
                index=index,
                node_ids=tuple(s.device for s in ordered),
                sums=(cell_sum,),
                expected=(sum(values) % prime,),
            )
        )
    totals, degree = cross_cell_aggregate(cell_results, iterations=1, seed=wseed)
    expected = sum(cell.expected[0] for cell in cell_results) % prime
    return WindowAggregate(
        total=totals[0], expected=expected, cells=len(cell_results), degree=degree
    )


def _canonical(submissions: Sequence[ShareSubmission]) -> list[ShareSubmission]:
    return sorted(submissions, key=lambda s: (s.device, s.seq))


def aggregate_window(
    submissions: Sequence[ShareSubmission],
    seed: int,
    window: int,
    cells: int = 1,
) -> WindowAggregate:
    """Aggregate one window's accepted submissions, deterministically.

    ``submissions`` may arrive in any order; they are canonicalised by
    ``(device, seq)`` first, then sliced into ``cells`` contiguous,
    near-even cells — windows with fewer submissions than cells use one
    cell per submission.
    """
    if cells < 1:
        raise ServiceError(f"cells must be >= 1, got {cells}")
    ordered = _canonical(submissions)
    num_cells = min(cells, len(ordered))
    chunks = []
    start = 0
    for index in range(num_cells):
        size = len(ordered) // num_cells + (index < len(ordered) % num_cells)
        chunks.append((index, ordered[start : start + size]))
        start += size
    return _fold_cells(chunks, seed, window)


def aggregate_shards(
    shard_submissions: dict[int, Sequence[ShareSubmission]],
    seed: int,
    window: int,
    cells: int = 1,
) -> WindowAggregate:
    """Fold per-shard accepted sets into one window total (sharded service).

    Each shard is one MPC cell whose membership is fixed by routing
    (``device % shards``), not by sorted slicing — but the determinism
    discipline is identical to :func:`aggregate_window`: submissions are
    canonicalised by ``(device, seq)`` *within* each shard, every cell's
    deal is seeded by the shard index (stable however many shards sat
    empty), and cell sums fold under the window seed.  The folded total
    is therefore a pure function of the per-shard accepted sets and the
    campaign seed — the kill-anywhere recovery contract, per shard and
    for the fold.

    A service with one shard (the only key is ``0``) slices that shard's
    set into ``cells`` cells through :func:`aggregate_window`; with
    ``cells=1`` that is bit-identical to the shard-as-cell fold.  With
    several shards each shard is one cell and ``cells`` is unused.
    """
    if list(shard_submissions) == [0]:
        return aggregate_window(shard_submissions[0], seed, window, cells)
    return _fold_cells(
        [
            (shard, _canonical(subs))
            for shard, subs in sorted(shard_submissions.items())
            if subs
        ],
        seed,
        window,
    )
