"""MiniCast: many-to-many data sharing over a chain of packets.

MiniCast (Saha et al., DCOSS 2017) extends Glossy from one packet to a
*chain* of sub-slot packets transmitted back-to-back.  Every node that is
triggered (hears a chain) transmits its own view of the chain — the
sub-slots it originates plus every sub-slot it has received so far — in
the next chain slot, up to NTX chain transmissions.  Because a sub-slot's
content is immutable (set by its source), concurrent transmitters send
*identical* packets in any sub-slot they both know, which is exactly the
condition Glossy-style constructive interference needs.

Simulation model (slot-synchronous, one event per chain slot):

* a node's chain view is a bit mask over sub-slot indices (one big int);
* per (listener, slot): concurrent transmitters are tried strongest
  first; each contributes an independent Bernoulli(PRR) *mask* of
  delivered sub-slots (sampled in O(precision) big-int ops via
  :mod:`repro.sim.bitrandom`), and each sub-slot accepts attempts from at
  most ``max_diversity`` transmitters *that know it* — the capture cap is
  per packet, not per node, tracked with saturating bit-plane counters;
* decoding at least one sub-slot arms the listener, which then transmits
  in each following slot with probability ``tx_probability`` until its
  NTX budget is spent.  The randomized transmit decision is how
  Chaos/Mixer-class many-to-many CT protocols desynchronize the network;
  a deterministic transmit-after-reception rule phase-locks the network
  into two alternating crowds and data from all but the strongest
  transmitters never propagates (we reproduce that pathology in tests);
* radio accounting: a transmitter spends ``popcount(view) × packet`` time
  in TX and the rest of the chain slot in RX; a listener spends the whole
  chain slot in RX; a node whose radio is off spends nothing.

Two radio-off policies mirror S3 vs S4:

* ``ALWAYS_ON`` — the naive schedule: every alive node keeps its radio on
  until the scheduled end of the round.
* ``EARLY_OFF`` — Glossy-style termination: a node switches off once it
  has (a) spent its NTX budget and (b) satisfied its local reception
  requirement, since it can contribute nothing further.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro import fastpath
from repro.errors import ConfigurationError
from repro.phy.capture import CaptureModel
from repro.phy.link import LinkTable
from repro.ct.slots import RoundSchedule
from repro.sim.bitrandom import DEFAULT_PRECISION, quantize_probability, random_bitmask

class RadioOffPolicy(enum.Enum):
    """When a node may power its radio down within a round."""

    ALWAYS_ON = "always_on"
    EARLY_OFF = "early_off"


@dataclass(frozen=True, slots=True)
class Requirement:
    """A node's local reception goal: ``min_count`` sub-slots of ``mask``.

    ``min_count == popcount(mask)`` means "all of them"; the sharing phase
    uses that form, the reconstruction phase uses ``min_count = degree+1``
    over the holders' mask.
    """

    mask: int
    min_count: int

    @classmethod
    def all_of(cls, mask: int) -> "Requirement":
        """Require every sub-slot in ``mask``."""
        return cls(mask=mask, min_count=mask.bit_count())

    @classmethod
    def count_of(cls, mask: int, min_count: int) -> "Requirement":
        """Require any ``min_count`` sub-slots of ``mask``."""
        if min_count > mask.bit_count():
            raise ConfigurationError(
                f"min_count {min_count} exceeds mask population {mask.bit_count()}"
            )
        return cls(mask=mask, min_count=min_count)

    @classmethod
    def nothing(cls) -> "Requirement":
        """No reception requirement (pure source/relay)."""
        return cls(mask=0, min_count=0)

    def satisfied_by(self, knowledge: int) -> bool:
        """Whether ``knowledge`` meets this requirement."""
        if self.min_count == 0:
            return True
        return (knowledge & self.mask).bit_count() >= self.min_count


@dataclass(frozen=True)
class MiniCastResult:
    """Outcome of one MiniCast round.

    Attributes:
        knowledge: node → final chain-view bit mask.
        completion_slot: node → chain-slot index at whose end the node's
            requirement was first satisfied (−1 if satisfied at start,
            ``None`` if never).
        tx_us / rx_us: per-node radio time split over the round.
        radio_off_slot: node → slot after which it powered down (None if
            it stayed on to the scheduled end).
        slots_run: chain slots actually simulated before network-quiet.
        schedule: the round schedule that was executed.
    """

    knowledge: dict[int, int]
    completion_slot: dict[int, int | None]
    tx_us: dict[int, int]
    rx_us: dict[int, int]
    radio_off_slot: dict[int, int | None]
    slots_run: int
    schedule: RoundSchedule
    failures: dict[int, int] = field(default_factory=dict)

    def completion_us(self, node: int) -> int | None:
        """Time at which ``node`` met its requirement (end of that slot)."""
        slot = self.completion_slot.get(node)
        if slot is None:
            return None
        if slot < 0:
            return 0
        return (slot + 1) * self.schedule.chain_slot_us

    def radio_on_us(self, node: int) -> int:
        """Radio-on time (TX + RX) of ``node`` for this round."""
        return self.tx_us.get(node, 0) + self.rx_us.get(node, 0)

    @property
    def round_duration_us(self) -> int:
        """Scheduled duration of the round (what TDMA reserves)."""
        return self.schedule.round_duration_us

    def delivery_ratio(self, mask: int) -> float:
        """Fraction of nodes whose final view contains all of ``mask``."""
        if not self.knowledge:
            return 0.0
        hits = sum(
            1 for view in self.knowledge.values() if view & mask == mask
        )
        return hits / len(self.knowledge)


class MiniCastRound:
    """One configured MiniCast round, runnable many times with fresh RNG."""

    __slots__ = (
        "_links",
        "_schedule",
        "_capture",
        "_policy",
        "_tx_probability",
        "_prr",
        "_rx_order",
        "_fast",
        "_index",
        "_rx_fast",
        "_kernel",
    )

    def __init__(
        self,
        links: LinkTable,
        schedule: RoundSchedule,
        capture: CaptureModel | None = None,
        policy: RadioOffPolicy = RadioOffPolicy.ALWAYS_ON,
        tx_probability: float = 0.5,
        force_reference: bool = False,
    ):
        """``force_reference`` pins this round to the readable loop even
        when the fast path is globally enabled.  Commissioning-time
        measurements (NTX-coverage profiling, S4 bootstrap) use it so the
        derived deployment parameters — collector sets, truncated
        schedules — are *bit-identical* to the seed implementation
        regardless of the compute path, keeping every downstream
        statistic on the exact configuration the reproduction validated.
        """
        if not 0.0 < tx_probability <= 1.0:
            raise ConfigurationError(
                f"tx_probability must be in (0, 1], got {tx_probability}"
            )
        self._links = links
        self._schedule = schedule
        self._capture = capture or CaptureModel()
        self._policy = policy
        self._tx_probability = tx_probability
        self._prr = {node: links.prr_row(node) for node in links.node_ids}
        self._rx_order = {
            dst: sorted(
                (src for src in links.node_ids if src != dst),
                key=lambda src: self._prr[src][dst],
                reverse=True,
            )
            for dst in links.node_ids
        }
        self._fast = fastpath.enabled() and not force_reference
        # Fast-path precomputation: node ids → dense indices, and one
        # receive list per listener holding (source index, pre-quantized
        # link success probability), strongest first, links at or below
        # the capture floor dropped.  The reference loop breaks at the
        # floor while walking the same descending order, so dropping those
        # entries up front is behaviour-preserving (and saves re-deriving
        # the quantized probability for every sampled mask).  Skipped
        # entirely for reference-path rounds, which never read it.
        if not self._fast:
            self._index = {}
            self._rx_fast: list[list[tuple[int, int, float]]] = []
            self._kernel = None
            return
        node_ids = links.node_ids
        self._index = {node: i for i, node in enumerate(node_ids)}
        floor = self._capture.prr_floor
        q_full = 1 << DEFAULT_PRECISION
        # Each entry is (source index, quantized success probability,
        # per-bit miss probability 1 - q/2^precision).  q/2^precision is
        # dyadic, so the miss probability is an exact double.
        self._rx_fast = []
        for dst in node_ids:
            row = []
            prr_column = self._prr
            for src in self._rx_order[dst]:
                prr = prr_column[src][dst]
                if prr > floor:
                    quantized = quantize_probability(prr)
                    row.append((self._index[src], quantized, 1.0 - quantized / q_full))
            self._rx_fast.append(row)
        # The native slot loop's fixed arguments (None when the round
        # does not fit it).  Imported here, not at module level, so that
        # processes which never build a fast round never load the binding.
        from repro.ct import native

        self._kernel = native.SlotKernel.for_round(
            node_ids,
            self._rx_fast,
            schedule,
            self._capture.max_diversity,
            policy is RadioOffPolicy.EARLY_OFF,
            tx_probability,
        )

    @property
    def schedule(self) -> RoundSchedule:
        """The schedule this round executes."""
        return self._schedule

    @property
    def policy(self) -> RadioOffPolicy:
        """The radio-off policy in force."""
        return self._policy

    def run(
        self,
        rng,
        initial_knowledge: Mapping[int, int],
        requirements: Mapping[int, Requirement] | None = None,
        initiators: Iterable[int] | None = None,
        alive: set[int] | None = None,
        failures: Mapping[int, int] | None = None,
        arm_schedule: Mapping[int, int] | None = None,
    ) -> MiniCastResult:
        """Execute the round.

        Dispatches to the bitmask fast loop or the readable reference
        loop depending on the :mod:`repro.fastpath` flag captured at
        construction.  The two paths are *distribution*-identical: every
        outcome statistic has the same law, but they spend ``rng`` draws
        differently, so a given seed generally produces different (yet
        equally valid) runs.  They coincide exactly only when no
        reception randomness is consumed (every link PRR quantizes to 0
        or 1), and commissioning callers that need seed-for-seed
        reproducibility pin ``force_reference=True`` instead
        (``tests/ct/test_minicast_fastpath.py`` covers all three).

        Args:
            rng: randomness source (``random``-like).
            initial_knowledge: node → bit mask of sub-slots it originates.
            requirements: node → local reception goal (default: nothing).
            initiators: nodes triggered at slot 0; defaults to the lowest
                node id with non-empty initial knowledge.
            alive: nodes participating at all (default: every node).
            failures: node → chain-slot index at whose *start* it dies.
            arm_schedule: node → chain-slot at which it joins the flood
                regardless of reception.  This models MiniCast's TDMA wave
                ("first-hop neighbors of the initiator transmit ... which
                in turn trigger the second hop"): in a time-synchronized
                network a node at hop h starts contending at slot h.
                Reception still arms a node earlier if it happens.
        """
        if self._fast:
            return self._run_fast(
                rng,
                initial_knowledge,
                requirements=requirements,
                initiators=initiators,
                alive=alive,
                failures=failures,
                arm_schedule=arm_schedule,
            )
        return self._run_reference(
            rng,
            initial_knowledge,
            requirements=requirements,
            initiators=initiators,
            alive=alive,
            failures=failures,
            arm_schedule=arm_schedule,
        )

    def _run_reference(
        self,
        rng,
        initial_knowledge: Mapping[int, int],
        requirements: Mapping[int, Requirement] | None = None,
        initiators: Iterable[int] | None = None,
        alive: set[int] | None = None,
        failures: Mapping[int, int] | None = None,
        arm_schedule: Mapping[int, int] | None = None,
    ) -> MiniCastResult:
        """The readable straight-line implementation (the fast loop's oracle)."""
        nodes = self._links.node_ids
        schedule = self._schedule
        chain_bits = schedule.chain_length
        ntx = schedule.ntx
        packet_us = schedule.packet_slot_us
        chain_slot_us = schedule.chain_slot_us
        capture = self._capture
        floor = capture.prr_floor
        max_div = capture.max_diversity
        early_off = self._policy is RadioOffPolicy.EARLY_OFF

        alive_set = set(nodes) if alive is None else set(alive)
        failures = dict(failures or {})
        requirements = dict(requirements or {})

        know: dict[int, int] = {}
        for node in nodes:
            mask = initial_knowledge.get(node, 0)
            if mask >> chain_bits:
                raise ConfigurationError(
                    f"initial knowledge of node {node} exceeds chain width"
                )
            know[node] = mask if node in alive_set else 0

        if initiators is None:
            with_data = [n for n in nodes if know[n] and n in alive_set]
            if not with_data:
                raise ConfigurationError("no node has data; cannot start round")
            initiator_set = {with_data[0]}
        else:
            initiator_set = set(initiators)
            unknown = initiator_set - set(nodes)
            if unknown:
                raise ConfigurationError(f"unknown initiators {sorted(unknown)}")

        # "Armed" nodes have joined the flood and contend for transmission
        # with probability tx_probability per slot until NTX is spent.
        armed = {
            node: (node in initiator_set and node in alive_set and know[node] != 0)
            for node in nodes
        }
        force_tx = dict(armed)  # initiators transmit slot 0 unconditionally
        tx_count = {node: 0 for node in nodes}
        tx_us = {node: 0 for node in nodes}
        radio_on = {node: node in alive_set for node in nodes}
        radio_off_slot: dict[int, int | None] = {node: None for node in nodes}
        # When each node's radio finally powered down; RX time falls out as
        # on-time minus TX time, which transparently covers silent slots
        # and early network-quiet.
        on_until_us = {
            node: (schedule.round_duration_us if radio_on[node] else 0)
            for node in nodes
        }
        completion: dict[int, int | None] = {}
        actual_failures: dict[int, int] = {}
        for node in nodes:
            requirement = requirements.get(node)
            if requirement is not None and requirement.satisfied_by(know[node]):
                completion[node] = -1
            elif requirement is None:
                completion[node] = -1
            else:
                completion[node] = None

        arm_schedule = dict(arm_schedule or {})

        slots_run = 0
        for slot in range(schedule.num_slots):
            # TDMA wave: nodes scheduled to join this slot become armed.
            for node, arm_slot in arm_schedule.items():
                if (
                    arm_slot == slot
                    and node in alive_set
                    and know[node] != 0
                    and tx_count[node] < ntx
                ):
                    armed[node] = True

            # Fault injection scheduled for the start of this slot.
            for node, fail_slot in failures.items():
                if fail_slot == slot and node in alive_set:
                    alive_set.discard(node)
                    radio_on[node] = False
                    on_until_us[node] = slot * chain_slot_us
                    actual_failures[node] = slot

            contenders = [
                node
                for node in nodes
                if radio_on[node]
                and armed[node]
                and tx_count[node] < ntx
                and know[node] != 0
            ]
            if not contenders:
                if any(arm_slot > slot for arm_slot in arm_schedule.values()):
                    continue  # a scheduled joiner may still wake the round
                # Arming otherwise only happens on reception: quiet stays
                # quiet, so stop simulating.
                break
            slots_run = slot + 1
            transmitters = [
                node
                for node in contenders
                if force_tx[node] or rng.random() < self._tx_probability
            ]
            tx_set = set(transmitters)

            for node in transmitters:
                force_tx[node] = False
                tx_count[node] += 1
                tx_us[node] += know[node].bit_count() * packet_us

            if not tx_set:
                # Every contender's coin flip said "listen"; the slot is
                # silent but the round is still live.
                continue

            for node in nodes:
                if not radio_on[node] or node in tx_set:
                    continue
                received = 0
                decoded_any = False
                # Per-sub-slot saturating attempt counters (bit planes):
                # attempted[k] has a 1 wherever a bit received >= k+1
                # attempts, so a bit stops accepting transmitters once the
                # max_diversity strongest holders of *that bit* have tried.
                attempted = [0] * max_div
                saturated = 0
                for src in self._rx_order[node]:
                    if src not in tx_set:
                        continue
                    prr = self._prr[src][node]
                    if prr <= floor:
                        break  # descending order: the rest are weaker
                    eligible = know[src] & ~saturated
                    if not eligible:
                        continue
                    mask = random_bitmask(rng, chain_bits, prr)
                    got = eligible & mask
                    if got:
                        decoded_any = True
                        received |= got
                    for plane in range(max_div - 1, 0, -1):
                        attempted[plane] |= attempted[plane - 1] & eligible
                    attempted[0] |= eligible
                    saturated = attempted[max_div - 1]
                if not decoded_any:
                    continue
                new_bits = received & ~know[node]
                if new_bits:
                    know[node] |= new_bits
                if tx_count[node] < ntx:
                    armed[node] = True

            # End-of-slot bookkeeping: completion and early radio-off.
            for node in nodes:
                if not radio_on[node]:
                    continue
                if completion[node] is None:
                    requirement = requirements.get(node)
                    if requirement is not None and requirement.satisfied_by(
                        know[node]
                    ):
                        completion[node] = slot
                if (
                    early_off
                    and tx_count[node] >= ntx
                    and completion[node] is not None
                ):
                    radio_on[node] = False
                    radio_off_slot[node] = slot
                    on_until_us[node] = (slot + 1) * chain_slot_us

        # RX time = radio-on time minus transmission time.  Nodes that kept
        # the radio on to the end idle-listen out the scheduled round: TDMA
        # gives them no way to know the network has gone quiet.
        rx_us = {
            node: max(0, on_until_us[node] - tx_us[node]) for node in nodes
        }

        return MiniCastResult(
            knowledge=know,
            completion_slot=completion,
            tx_us=tx_us,
            rx_us=rx_us,
            radio_off_slot=radio_off_slot,
            slots_run=slots_run,
            schedule=schedule,
            failures=actual_failures,
        )

    def _run_fast(
        self,
        rng,
        initial_knowledge: Mapping[int, int],
        requirements: Mapping[int, Requirement] | None = None,
        initiators: Iterable[int] | None = None,
        alive: set[int] | None = None,
        failures: Mapping[int, int] | None = None,
        arm_schedule: Mapping[int, int] | None = None,
    ) -> MiniCastResult:
        """Bitmask hot loop, distribution-identical to the reference.

        Per-node booleans (radio on, armed, forced transmit, budget left,
        has data) live as bit positions in small ints, so per-slot node
        scans become popcount-bounded bit iterations; per-slot schedules
        (arming waves, fault injection) are bucketed by slot up front;
        link success probabilities come pre-quantized from ``__init__``.

        The one deliberate divergence from the reference is *how*
        randomness is spent, not what it means: per-bit Bernoulli masks
        are sampled only for sub-slots the listener does not yet know
        (the only bits that can change its state), and deliveries of
        already-known bits — which the reference samples in full and then
        discards — collapse into one closed-form draw deciding whether a
        still-unarmed listener decodes anything (the arming trigger; an
        armed node stays armed, so for it the question is moot).  Per-bit
        independence makes the split exact, so every observable outcome
        has the same distribution as the reference; seeded runs differ
        stream-wise, and ``tests/ct/test_minicast_fastpath.py`` checks
        both the exact deterministic cases and distributional agreement.

        The slot loop itself exists twice, stream-identical: in C
        (:mod:`repro.ct.native`), used for a plain ``random.Random``
        whenever the kernel builds, and in Python (:meth:`_python_slots`),
        its oracle and the fallback for every other case.  The prologue
        and the epilogue around it are shared.
        """
        flood = self._prologue(
            initial_knowledge, requirements, initiators, alive, failures, arm_schedule
        )
        if not (
            type(rng) is random.Random
            and self._kernel is not None
            and self._kernel.run(rng, flood)
        ):
            self._python_slots(rng, flood)
        nodes = self._links.node_ids
        on_until_us = flood.on_until_us
        tx_us = flood.tx_us
        return MiniCastResult(
            knowledge=dict(zip(nodes, flood.know)),
            completion_slot=dict(zip(nodes, flood.completion)),
            tx_us=dict(zip(nodes, tx_us)),
            rx_us={
                node: max(0, on_until_us[i] - tx_us[i])
                for i, node in enumerate(nodes)
            },
            radio_off_slot=dict(zip(nodes, flood.radio_off_slot)),
            slots_run=flood.slots_run,
            schedule=self._schedule,
            failures=flood.failures,
        )

    def _prologue(
        self, initial_knowledge, requirements, initiators, alive, failures, arm_schedule
    ) -> "_Flood":
        """Validate the inputs and lay them out for either slot loop."""
        nodes = self._links.node_ids
        index = self._index
        n = len(nodes)
        schedule = self._schedule
        chain_bits = schedule.chain_length
        ntx = schedule.ntx

        if alive is None:
            alive_mask = (1 << n) - 1
        else:
            alive_mask = 0
            alive_set = set(alive)
            for i, node in enumerate(nodes):
                if node in alive_set:
                    alive_mask |= 1 << i

        know: list[int] = []
        know_mask = 0  # bit i set iff know[i] != 0
        for i, node in enumerate(nodes):
            mask = initial_knowledge.get(node, 0)
            if mask >> chain_bits:
                raise ConfigurationError(
                    f"initial knowledge of node {node} exceeds chain width"
                )
            if alive_mask >> i & 1 and mask:
                know.append(mask)
                know_mask |= 1 << i
            else:
                know.append(0)

        if initiators is None:
            candidates = know_mask & alive_mask
            if not candidates:
                raise ConfigurationError("no node has data; cannot start round")
            initiator_mask = candidates & -candidates
        else:
            initiator_set = set(initiators)
            unknown = initiator_set - set(nodes)
            if unknown:
                raise ConfigurationError(f"unknown initiators {sorted(unknown)}")
            initiator_mask = 0
            for node in initiator_set:
                initiator_mask |= 1 << index[node]

        flood = _Flood()
        flood.know = know
        flood.know_mask = know_mask
        flood.alive_mask = alive_mask
        flood.armed_mask = initiator_mask & alive_mask & know_mask
        # bit set iff tx budget left
        flood.budget_mask = (1 << n) - 1 if ntx > 0 else 0
        flood.tx_us = [0] * n
        flood.radio_off_slot = [None] * n
        round_duration_us = schedule.round_duration_us
        flood.on_until_us = [
            round_duration_us if alive_mask >> i & 1 else 0 for i in range(n)
        ]

        completion: list[int | None] = [-1] * n
        completed_mask = (1 << n) - 1
        # (mask, min_count) per still-unsatisfied node; nodes without a
        # requirement (or already satisfied) carry completion -1 from the
        # start, exactly like the reference.
        req_fast: list[tuple[int, int] | None] = [None] * n
        pending: list[int] = []
        for node, requirement in (requirements or {}).items():
            i = index.get(node)
            if i is None or requirement.satisfied_by(know[i]):
                continue
            completion[i] = None
            completed_mask &= ~(1 << i)
            req_fast[i] = (requirement.mask, requirement.min_count)
            pending.append(i)
        pending.sort()
        flood.completion = completion
        flood.completed_mask = completed_mask
        flood.req_fast = req_fast
        flood.pending = pending

        arm_by_slot: dict[int, list[int]] = {}
        max_arm_slot = -1
        for node, arm_slot in (arm_schedule or {}).items():
            i = index.get(node)
            if i is not None:
                arm_by_slot.setdefault(arm_slot, []).append(i)
            if arm_slot > max_arm_slot:
                max_arm_slot = arm_slot
        fail_by_slot: dict[int, list[int]] = {}
        for node, fail_slot in (failures or {}).items():
            i = index.get(node)
            if i is not None:
                fail_by_slot.setdefault(fail_slot, []).append(i)
        flood.arm_by_slot = arm_by_slot
        flood.max_arm_slot = max_arm_slot
        flood.fail_by_slot = fail_by_slot
        flood.failures = {}

        # Quiescence fast-out for the saturated tail: the union of all
        # knowledge is invariant over a round (bits only spread), so once
        # every radio-on node holds the full union and nobody unarmed has
        # budget left, the listener phase can never change state *or*
        # consume randomness — skipping it wholesale is draw-neutral.
        total_union = 0
        for view in know:
            total_union |= view
        flood.total_union = total_union
        flood.know_uniform = all(
            know[i] == total_union for i in range(n) if alive_mask >> i & 1
        )
        flood.slots_run = 0
        return flood

    def _python_slots(self, rng, flood: "_Flood") -> None:
        """The slot loop in Python: the native kernel's oracle, and the
        loop that runs wherever the kernel does not."""
        nodes = self._links.node_ids
        n = len(nodes)
        schedule = self._schedule
        chain_bits = schedule.chain_length
        ntx = schedule.ntx
        packet_us = schedule.packet_slot_us
        chain_slot_us = schedule.chain_slot_us
        max_div = self._capture.max_diversity
        early_off = self._policy is RadioOffPolicy.EARLY_OFF
        tx_probability = self._tx_probability
        rx_lists = self._rx_fast
        precision = DEFAULT_PRECISION
        q_full = 1 << precision

        know = flood.know
        know_mask = flood.know_mask
        alive_mask = flood.alive_mask
        radio_mask = alive_mask
        armed_mask = flood.armed_mask
        force_mask = armed_mask  # initiators transmit slot 0 unconditionally
        budget_mask = flood.budget_mask
        tx_count = [0] * n
        tx_us = flood.tx_us
        on_until_us = flood.on_until_us
        radio_off_slot = flood.radio_off_slot
        completion = flood.completion
        completed_mask = flood.completed_mask
        req_fast = flood.req_fast
        pending = flood.pending
        arm_by_slot = flood.arm_by_slot
        max_arm_slot = flood.max_arm_slot
        fail_by_slot = flood.fail_by_slot
        actual_failures = flood.failures
        total_union = flood.total_union
        know_uniform = flood.know_uniform

        rng_random = rng.random
        getrandbits = rng.getrandbits

        slots_run = 0
        for slot in range(schedule.num_slots):
            joiners = arm_by_slot.get(slot)
            if joiners:
                for i in joiners:
                    if alive_mask >> i & 1 and know[i] and budget_mask >> i & 1:
                        armed_mask |= 1 << i

            casualties = fail_by_slot.get(slot)
            if casualties:
                for i in casualties:
                    bit = 1 << i
                    if alive_mask & bit:
                        alive_mask &= ~bit
                        radio_mask &= ~bit
                        on_until_us[i] = slot * chain_slot_us
                        actual_failures[nodes[i]] = slot

            contender_mask = radio_mask & armed_mask & budget_mask & know_mask
            if not contender_mask:
                if max_arm_slot > slot:
                    continue  # a scheduled joiner may still wake the round
                break
            slots_run = slot + 1

            # Contender scan, transmit decision and transmit bookkeeping in
            # one ascending-index pass (same rng draw order as the
            # reference's separate passes — bookkeeping draws nothing).
            tx_mask = 0
            tx_union = 0
            bits = contender_mask
            while bits:
                low = bits & -bits
                bits ^= low
                if force_mask & low:
                    force_mask ^= low
                elif rng_random() >= tx_probability:
                    continue
                i = low.bit_length() - 1
                tx_mask |= low
                view = know[i]
                tx_union |= view
                count = tx_count[i] + 1
                tx_count[i] = count
                if count >= ntx:
                    budget_mask &= ~low
                tx_us[i] += view.bit_count() * packet_us

            if not tx_mask:
                # Every contender's coin flip said "listen"; the slot is
                # silent but the round is still live.
                continue

            listeners = radio_mask & ~tx_mask
            if know_uniform and not (radio_mask & budget_mask & ~armed_mask):
                listeners = 0
            know_changed = False
            bits = listeners
            while bits:
                low = bits & -bits
                bits ^= low
                i = low.bit_length() - 1
                know_i = know[i]
                fresh_all = tx_union & ~know_i
                # Once armed, a node stays armed (the reference never
                # resets it), so the decode-anything re-arming draw only
                # matters for listeners that are still unarmed with budget
                # left.  Everyone else can only be changed by sub-slots
                # they don't know yet.
                can_rearm = not armed_mask & low and budget_mask & low
                if not fresh_all and not can_rearm:
                    continue
                received = 0
                sampled_hit = False
                miss = 1.0
                attempted = [0] * max_div
                saturated = 0
                for src, quantized, miss_q in rx_lists[i]:
                    if not tx_mask >> src & 1:
                        continue
                    eligible = know[src] & ~saturated
                    if not eligible:
                        continue
                    if quantized >= q_full:
                        sampled_hit = True
                        received |= eligible
                    elif quantized > 0:
                        fresh = eligible & ~know_i
                        if fresh:
                            # LSB-first over all `precision` digits of the
                            # quantized probability, as in random_bitmask.
                            acc = 0
                            qbits = quantized
                            for _ in range(precision):
                                r = getrandbits(chain_bits)
                                if qbits & 1:
                                    acc |= r
                                else:
                                    acc &= r
                                qbits >>= 1
                            got = fresh & acc
                            if got:
                                sampled_hit = True
                                received |= got
                        if can_rearm and not sampled_hit:
                            # Already-known bits can only re-arm the node;
                            # fold their delivery odds into one draw below.
                            stale_count = (eligible & know_i).bit_count()
                            if stale_count:
                                miss *= miss_q**stale_count
                    # Nothing downstream can change once every reachable
                    # fresh bit arrived and the arming question is settled.
                    if fresh_all & ~received == 0 and (
                        sampled_hit or not can_rearm
                    ):
                        break
                    for plane in range(max_div - 1, 0, -1):
                        attempted[plane] |= attempted[plane - 1] & eligible
                    attempted[0] |= eligible
                    saturated = attempted[max_div - 1]
                if sampled_hit:
                    decoded_any = True
                elif can_rearm and miss < 1.0:
                    # P(at least one already-known sub-slot decoded).
                    decoded_any = rng_random() >= miss
                else:
                    decoded_any = False
                if not decoded_any:
                    continue
                new_bits = received & ~know_i
                if new_bits:
                    know[i] = know_i | new_bits
                    know_mask |= low
                    know_changed = True
                if budget_mask & low:
                    armed_mask |= low

            if know_changed and not know_uniform:
                know_uniform = all(
                    know[i] == total_union
                    for i in range(n)
                    if radio_mask >> i & 1
                )

            # End-of-slot bookkeeping: completion and early radio-off.
            if pending:
                still_pending = []
                for i in pending:
                    if radio_mask >> i & 1:
                        mask, min_count = req_fast[i]
                        if (know[i] & mask).bit_count() >= min_count:
                            completion[i] = slot
                            completed_mask |= 1 << i
                            continue
                    still_pending.append(i)
                pending = still_pending
            if early_off:
                bits = radio_mask & ~budget_mask & completed_mask
                while bits:
                    low = bits & -bits
                    bits ^= low
                    i = low.bit_length() - 1
                    radio_mask &= ~low
                    radio_off_slot[i] = slot
                    on_until_us[i] = (slot + 1) * chain_slot_us

        flood.slots_run = slots_run


class _Flood:
    """One fast-path round between the prologue, a slot loop and the
    epilogue.  Node sets are bit masks over dense node indices (bit i is
    ``links.node_ids[i]``); chain views are ints.  Either slot loop
    updates ``know``, ``tx_us``, ``on_until_us``, ``radio_off_slot``,
    ``completion``, ``failures`` and ``slots_run``."""

    __slots__ = (
        "know",
        "know_mask",
        "alive_mask",
        "armed_mask",
        "budget_mask",
        "tx_us",
        "on_until_us",
        "radio_off_slot",
        "completion",
        "completed_mask",
        "req_fast",
        "pending",
        "arm_by_slot",
        "max_arm_slot",
        "fail_by_slot",
        "failures",
        "total_union",
        "know_uniform",
        "slots_run",
    )
