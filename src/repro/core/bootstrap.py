"""The bootstrapping phase.

The paper assumes a bootstrapping phase that (a) installs pairwise keys
and (b) has "every node take note of which neighbor is reachable at what
NTX value".  S4 additionally derives from those measurements:

* the **collector set** — ``m = degree + 1 + redundancy`` nodes that every
  potential source reaches reliably at the low sharing NTX;
* the **truncated sharing schedule** — instead of the worst-case
  budget-exhaustion bound, S4 schedules the sharing round to the profiled
  quantile of collector completion times plus slack ("the process
  completes fast with low NTX and enters the reconstruction phase").

Everything here is measurement-driven: no oracle topology knowledge leaks
into the protocol, only statistics a real deployment could gather during
commissioning.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.ct.coverage import (
    CoverageStats,
    arm_offsets,
    elect_collectors,
    profile_coverage,
)
from repro.ct.minicast import MiniCastRound, RadioOffPolicy, Requirement
from repro.ct.packet import ChainLayout
from repro.ct.slots import RoundSchedule
from repro.errors import BootstrapError
from repro.phy.capture import CaptureModel
from repro.phy.link import LinkTable
from repro.phy.radio import RadioTimings
from repro.sim.seeds import stable_seed
from repro.topology.graph import diameter, is_connected


@dataclass(frozen=True)
class S4Bootstrap:
    """What S4's bootstrapping phase hands the runtime protocol.

    Attributes:
        collectors: elected collector node ids (sorted).
        sharing_slots: truncated sharing-round length in chain slots.
        coverage: the NTX-coverage statistics the election used.
        network_depth: good-link diameter estimate (for the
            reconstruction schedule).
    """

    collectors: tuple[int, ...]
    sharing_slots: int
    coverage: CoverageStats
    network_depth: int


def network_depth(links: LinkTable) -> int:
    """Good-link diameter — the depth hint for full-coverage schedules.

    Memoised on the (immutable) link table: the diameter runs one BFS per
    node, and every engine over a shared table asks the same question.
    """
    depth = links.derived_cache.get("network_depth")
    if depth is None:
        adjacency = links.adjacency()
        if not is_connected(adjacency):
            raise BootstrapError(
                "good-link graph is disconnected; this deployment cannot "
                "support network-wide aggregation"
            )
        depth = diameter(adjacency)
        links.derived_cache["network_depth"] = depth
    return depth


def profile_completion_slots(
    round_: MiniCastRound,
    initial_knowledge: dict[int, int],
    requirements: dict[int, Requirement],
    initiators: Sequence[int],
    iterations: int,
    seed: int,
    satisfy_count: int | None = None,
    arm_schedule: dict[int, int] | None = None,
) -> list[int]:
    """Requirement-completion slot per probe run.

    By default records the slot at which the *last* watched node
    completed.  With ``satisfy_count = k``, records the slot at which the
    k-th watched node completed instead — this is how S4 converts its
    collector redundancy into schedule truncation: reconstruction only
    needs ``degree + 1`` complete collectors, so the round can end once
    that many are served.  Nodes that never complete are recorded at the
    full schedule length, so quantiles degrade gracefully instead of
    silently dropping failures.
    """
    if iterations < 1:
        raise BootstrapError(f"iterations must be >= 1, got {iterations}")
    watched = [node for node, req in requirements.items() if req.min_count > 0]
    if satisfy_count is None:
        satisfy_count = len(watched)
    if not 1 <= satisfy_count <= len(watched):
        raise BootstrapError(
            f"satisfy_count {satisfy_count} outside [1, {len(watched)}]"
        )
    per_run: list[int] = []
    for iteration in range(iterations):
        rng = random.Random(stable_seed(seed, "completion", iteration))
        result = round_.run(
            rng,
            initial_knowledge=initial_knowledge,
            requirements=requirements,
            initiators=initiators,
            arm_schedule=arm_schedule,
        )
        slots = sorted(
            (
                result.completion_slot[node]
                if result.completion_slot[node] is not None
                else round_.schedule.num_slots
            )
            for node in watched
        )
        per_run.append(slots[satisfy_count - 1])
    return per_run


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation — slots are discrete)."""
    if not values:
        raise BootstrapError("quantile of empty sequence")
    if not 0.0 < q <= 1.0:
        raise BootstrapError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def bootstrap_s4(
    links: LinkTable,
    timings: RadioTimings,
    sources: Sequence[int],
    num_collectors: int,
    sharing_ntx: int,
    capture: CaptureModel | None = None,
    tx_probability: float = 0.5,
    collector_threshold: float = 0.9,
    completion_quantile: float = 0.95,
    slack_slots: int = 2,
    iterations: int = 20,
    seed: int = 0xB007,
    satisfy_count: int | None = None,
) -> S4Bootstrap:
    """Run the full S4 bootstrapping measurement campaign.

    1. Profile per-pair coverage at ``sharing_ntx`` (the "who is reachable
       at what NTX" table).
    2. Elect ``num_collectors`` collectors every source reaches reliably.
    3. Build the real (sources × collectors) sharing chain, profile
       collector-completion slots on it (``satisfy_count`` collectors
       complete — degree + 1 is enough thanks to redundancy), and
       truncate the schedule at ``completion_quantile`` plus slack.
    """
    depth = network_depth(links)
    coverage = profile_coverage(
        links,
        timings,
        ntx_values=[sharing_ntx],
        depth_hint=depth,
        iterations=iterations,
        seed=seed,
        capture=capture,
    ).at(sharing_ntx)

    collectors = elect_collectors(
        coverage,
        num_collectors=num_collectors,
        sources=list(sources),
        candidates=list(links.node_ids),
        threshold=collector_threshold,
    )

    # Profile completion on the real sharing chain with the generous
    # budget-exhaustion schedule, then truncate.
    sharing_layout = ChainLayout.sharing(sorted(sources), collectors)
    generous = RoundSchedule.plan(
        chain_length=len(sharing_layout),
        psdu_bytes=sharing_layout.psdu_bytes,
        ntx=sharing_ntx,
        depth_hint=depth,
        timings=timings,
    )
    probe = MiniCastRound(
        links,
        generous,
        capture=capture,
        policy=RadioOffPolicy.ALWAYS_ON,
        tx_probability=tx_probability,
        # The truncated schedule derived from these probes must be
        # bit-identical to the seed regardless of the compute path.
        force_reference=True,
    )
    initial = {
        node: sharing_layout.source_mask(node) for node in links.node_ids
    }
    requirements = {
        collector: Requirement.all_of(sharing_layout.destination_mask(collector))
        for collector in collectors
    }
    initiator = min(s for s in sources)
    completion = profile_completion_slots(
        probe,
        initial_knowledge=initial,
        requirements=requirements,
        initiators=[initiator],
        iterations=iterations,
        seed=seed,
        satisfy_count=satisfy_count,
        arm_schedule=arm_offsets(links, initiator),
    )
    sharing_slots = int(quantile(completion, completion_quantile)) + 1 + slack_slots
    sharing_slots = min(sharing_slots, generous.num_slots)

    return S4Bootstrap(
        collectors=tuple(collectors),
        sharing_slots=sharing_slots,
        coverage=coverage,
        network_depth=depth,
    )
