"""NTX → coverage profiling (the measurement behind S4's bootstrapping).

Section III of the paper observes that MiniCast coverage grows
non-linearly with NTX — a node quickly hears a large neighbourhood, but
full network coverage takes disproportionately longer — and that S4's
bootstrapping phase has "every node take note of which neighbor is
reachable at what NTX value".

:func:`profile_coverage` runs many probe rounds (every node sourcing one
sub-slot, i.e. a chain of length n) per candidate NTX and records, for
each (source, destination) pair, the empirical delivery probability.
From that the protocol layer derives:

* the minimum NTX for reliable *full* coverage (what S3 must use),
* per-node reachability sets at low NTX (what S4's collector election
  uses).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.phy.capture import CaptureModel
from repro.phy.link import LinkTable
from repro.phy.radio import RadioTimings
from repro.ct.minicast import MiniCastRound, RadioOffPolicy, Requirement
from repro.ct.packet import ChainLayout
from repro.ct.slots import RoundSchedule
from repro.sim.seeds import stable_seed
from repro.topology.graph import bfs_hops


def arm_offsets(links: LinkTable, root: int) -> dict[int, int]:
    """TDMA wave offsets: node → good-link hop distance from ``root``.

    This is the slot at which each node is scheduled to join a MiniCast
    round started by ``root`` ("first-hop neighbors of the initiator
    transmit ... which in turn trigger the second hop").  Nodes outside
    the root's good-link component (possible under aggressive shadowing)
    join one slot after the farthest connected node.

    Memoised on the (immutable) link table; each caller gets its own
    copy.
    """
    cached = links.derived_cache.get(("wave", root))
    if cached is None:
        hops = bfs_hops(links.adjacency(), root)
        fallback = (max(hops.values()) if hops else 0) + 1
        cached = {node: hops.get(node, fallback) for node in links.node_ids}
        links.derived_cache[("wave", root)] = cached
    return dict(cached)


@dataclass(frozen=True)
class CoverageStats:
    """Aggregate coverage measurements at one NTX value.

    Attributes:
        ntx: the NTX these stats describe.
        pair_delivery: (source, destination) → empirical delivery
            probability over the probe iterations.
        mean_delivery: mean of ``pair_delivery`` values.
        full_coverage_fraction: fraction of iterations in which *every*
            pair was delivered (true all-to-all).
        mean_reachable: average number of distinct sources a node
            received — the "how far does NTX reach" curve of §III.
        slots_run_mean: average chain slots until network-quiet.
    """

    ntx: int
    pair_delivery: dict[tuple[int, int], float]
    mean_delivery: float
    full_coverage_fraction: float
    mean_reachable: float
    slots_run_mean: float


@dataclass(frozen=True)
class CoverageProfile:
    """Coverage statistics across a sweep of NTX values."""

    stats: dict[int, CoverageStats]

    def at(self, ntx: int) -> CoverageStats:
        """Stats for one NTX value."""
        try:
            return self.stats[ntx]
        except KeyError:
            raise ConfigurationError(
                f"NTX {ntx} was not profiled (have {sorted(self.stats)})"
            ) from None

    def min_full_coverage_ntx(self, target: float = 0.95) -> int | None:
        """Smallest profiled NTX whose full-coverage fraction ≥ ``target``."""
        for ntx in sorted(self.stats):
            if self.stats[ntx].full_coverage_fraction >= target:
                return ntx
        return None


def probe_round(
    links: LinkTable,
    timings: RadioTimings,
    ntx: int,
    depth_hint: int,
    capture: CaptureModel | None = None,
    psdu_bytes: int | None = None,
) -> tuple[MiniCastRound, ChainLayout]:
    """Build the 1-sub-slot-per-node probe round used for profiling."""
    nodes = links.node_ids
    layout = ChainLayout.reconstruction(nodes, num_nodes=len(nodes))
    schedule = RoundSchedule.plan(
        chain_length=len(layout),
        psdu_bytes=psdu_bytes if psdu_bytes is not None else layout.psdu_bytes,
        ntx=ntx,
        depth_hint=depth_hint,
        timings=timings,
    )
    round_ = MiniCastRound(
        links,
        schedule,
        capture=capture,
        policy=RadioOffPolicy.ALWAYS_ON,
        # Probe statistics feed deployment decisions (full-coverage NTX,
        # collector election); keep them bit-identical to the seed.
        force_reference=True,
    )
    return round_, layout


def profile_coverage(
    links: LinkTable,
    timings: RadioTimings,
    ntx_values: Sequence[int],
    depth_hint: int,
    iterations: int = 30,
    seed: int = 0,
    capture: CaptureModel | None = None,
) -> CoverageProfile:
    """Measure delivery statistics for each NTX in ``ntx_values``."""
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    nodes = links.node_ids
    wave = arm_offsets(links, nodes[0])
    stats: dict[int, CoverageStats] = {}
    for ntx in ntx_values:
        round_, layout = probe_round(links, timings, ntx, depth_hint, capture)
        initial = {node: layout.source_mask(node) for node in nodes}
        requirements = {
            node: Requirement.all_of(layout.full_mask()) for node in nodes
        }
        pair_hits: dict[tuple[int, int], int] = {
            (src, dst): 0 for src in nodes for dst in nodes if src != dst
        }
        full_rounds = 0
        reachable_total = 0
        slots_total = 0
        # Hot-loop hoists: bit position per source (computed once, not per
        # pair per iteration), the mask of everyone-but-me, and a dense
        # per-destination hit counter indexed by bit position.
        bit_of_source = {src: layout.index_of(src, None) for src in nodes}
        source_of_bit = {bit: src for src, bit in bit_of_source.items()}
        hit_rows: dict[int, list[int]] = {dst: [0] * len(layout) for dst in nodes}
        others_mask = {
            dst: layout.full_mask() & ~(1 << bit_of_source[dst]) for dst in nodes
        }
        for iteration in range(iterations):
            rng = random.Random(stable_seed(seed, ntx, iteration))
            result = round_.run(
                rng,
                initial_knowledge=initial,
                requirements=requirements,
                initiators=[nodes[0]],
                arm_schedule=wave,
            )
            slots_total += result.slots_run
            everything = True
            for dst in nodes:
                relevant = result.knowledge[dst] & others_mask[dst]
                count = relevant.bit_count()
                reachable_total += count
                if count != len(nodes) - 1:
                    everything = False
                row = hit_rows[dst]
                while relevant:
                    low_bit = relevant & -relevant
                    row[low_bit.bit_length() - 1] += 1
                    relevant ^= low_bit
            if everything:
                full_rounds += 1
        for dst in nodes:
            for bit, hits in enumerate(hit_rows[dst]):
                if hits:
                    pair_hits[(source_of_bit[bit], dst)] = hits
        pair_delivery = {
            pair: hits / iterations for pair, hits in pair_hits.items()
        }
        num_pairs = len(pair_hits)
        stats[ntx] = CoverageStats(
            ntx=ntx,
            pair_delivery=pair_delivery,
            mean_delivery=sum(pair_delivery.values()) / num_pairs,
            full_coverage_fraction=full_rounds / iterations,
            mean_reachable=reachable_total / (iterations * len(nodes)),
            slots_run_mean=slots_total / iterations,
        )
    return CoverageProfile(stats=stats)


def elect_collectors(
    coverage: CoverageStats,
    num_collectors: int,
    sources: Sequence[int],
    candidates: Sequence[int],
    threshold: float = 0.95,
) -> list[int]:
    """Choose collectors every source reaches reliably at the profiled NTX.

    Two criteria, in order:

    1. *Reachability* — a candidate's worst-case (minimum over sources)
       delivery probability must be at least ``threshold``.
    2. *Compactness* — among qualified candidates, pick the best-scoring
       one as the cluster centre and fill the remaining seats with the
       candidates best connected to it.

    Compactness is not cosmetic: clustered collectors see correlated
    deliveries, so when a marginal source's shares go missing they tend
    to go missing *identically* across collectors, which keeps the
    contributor sets consistent and reconstruction possible.  It also
    matches the paper's wording — shares go to "a few known
    pre-determined *neighbors*".

    Raises :class:`ConfigurationError` when fewer than ``num_collectors``
    candidates meet ``threshold`` — the caller should then raise NTX, the
    exact trade-off §III describes.
    """
    if num_collectors < 1:
        raise ConfigurationError(
            f"num_collectors must be >= 1, got {num_collectors}"
        )
    scored: list[tuple[float, int]] = []
    for candidate in candidates:
        worst = min(
            (
                coverage.pair_delivery.get((source, candidate), 1.0)
                for source in sources
                if source != candidate
            ),
            default=1.0,
        )
        scored.append((worst, candidate))
    scored.sort(key=lambda item: (-item[0], item[1]))
    qualified = [candidate for score, candidate in scored if score >= threshold]
    if len(qualified) < num_collectors:
        raise ConfigurationError(
            f"only {len(qualified)} candidates reach {threshold:.0%} worst-case "
            f"delivery at NTX {coverage.ntx}; need {num_collectors} — "
            "increase NTX or lower the threshold"
        )
    center = qualified[0]
    others = sorted(
        (c for c in qualified if c != center),
        key=lambda c: (
            -(
                coverage.pair_delivery.get((center, c), 0.0)
                + coverage.pair_delivery.get((c, center), 0.0)
            ),
            c,
        ),
    )
    return sorted([center] + others[: num_collectors - 1])
