"""The native MiniCast kernels' calling conventions (``minicast_kernel.c``).

The kernels are two functions of the package's native library, built
and loaded by :mod:`repro.native`; where that library is missing,
:func:`minicast_kernel` and :func:`reference_kernel` are ``None`` and
the Python loops run.

:class:`SlotKernel` is the call: a fast-path :class:`~repro.ct.minicast
.MiniCastRound` builds one at construction (its receive lists as C
arrays), and each round moves the prologue's state into word arrays,
the ``random.Random`` state in through ``getstate`` and back out through
``setstate``, and the kernel's outputs back into the state the shared
epilogue reads.  :class:`ReferenceKernel` is the same for the reference
loop that commissioning runs (``force_reference=True``): it builds the
whole :class:`~repro.ct.minicast.MiniCastResult`, or declines an input
the reference loop would reject or read differently, so that the loop
itself runs and decides.  Everything that knows the kernels' argument
order, flag bits and sentinels is in this module.
"""

from __future__ import annotations

import math
from array import array

from repro import native
from repro.ct.minicast import MiniCastResult, Requirement
from repro.errors import SimulationError
from repro.sim.bitrandom import DEFAULT_PRECISION, quantize_probability

#: ``minicast_slots``: int64 result; 9 int64s, a double, 3 int64s, 17 arrays.
SIGNATURE = "q" + "q" * 9 + "d" + "q" * 3 + "p" * 17
#: ``minicast_reference``: int64 result; 9 int64s, a double, 2 int64s, 15 arrays.
REFERENCE_SIGNATURE = "q" + "q" * 9 + "d" + "q" * 2 + "p" * 15
#: Node flags and the unmet-requirement completion of ``minicast_kernel.c``.
_ALIVE, _RADIO, _ARMED, _FORCE, _BUDGET = 1, 2, 4, 8, 16
_PENDING = -2
#: Radio times and budgets below this fit the kernel's 64-bit arithmetic.
_LIMIT = 1 << 62


def minicast_kernel():
    """The kernel's ``minicast_slots`` function, or ``None`` where the
    native library cannot be built or loaded in this process."""
    return native.kernel("minicast_slots", SIGNATURE)


def reference_kernel():
    """The kernel's ``minicast_reference`` function, or ``None`` where
    the native library cannot be built or loaded in this process."""
    return native.kernel("minicast_reference", REFERENCE_SIGNATURE)


def _fits(schedule, tx_probability) -> bool:
    """Whether a round's transmit probability is a double and its radio
    times and budget fit the kernels' 64-bit arithmetic."""
    return (
        float(tx_probability) == tx_probability
        and abs(schedule.ntx) < _LIMIT
        and schedule.num_slots
        * (schedule.chain_slot_us + schedule.chain_length * schedule.packet_slot_us)
        < _LIMIT
    )


def _mt_state(rng):
    """``rng``'s state as the kernels' 625 words, and what they pass through."""
    version, state, gauss_next = rng.getstate()
    return array("I", state), (version, gauss_next)


def _set_mt_state(rng, mt, passed) -> None:
    version, gauss_next = passed
    rng.setstate((version, tuple(mt), gauss_next))


def _words(views, width: int) -> array:
    """Chain views as little-endian 64-bit words, ``width`` bytes each."""
    return array("Q", b"".join([view.to_bytes(width, "little") for view in views]))


def _requirements(pending, words: int) -> tuple[array, array]:
    """Each node's unmet reception requirement, a ``(mask, min_count)``
    pair or None, as the kernels' mask words and minimum counts.  Only
    pending nodes carry a requirement; bits past the chain and counts
    past its width change no comparison."""
    width = 8 * words
    full = (1 << 64 * words) - 1
    unmet = 64 * words + 1
    encoded = {None: (bytes(width), 0)}  # nodes often share one requirement
    masks, mins = [], []
    for requirement in pending:
        pair = encoded.get(requirement)
        if pair is None:
            pair = encoded[requirement] = (
                (requirement[0] & full).to_bytes(width, "little"),
                min(math.ceil(requirement[1]), unmet),
            )
        masks.append(pair[0])
        mins.append(pair[1])
    return array("Q", b"".join(masks)), array("q", mins)


def _views(words: array, n: int, width: int) -> list[int]:
    raw = words.tobytes()
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(n)]


class SlotKernel:
    """One MiniCast round's fixed kernel arguments: its schedule, capture
    cap, policy and receive lists, the lists flattened into C arrays
    (listener i's entries are ``rx_start[i]:rx_start[i + 1]`` of the
    source, quantized-PRR and miss-probability arrays)."""

    __slots__ = ("_nodes", "_schedule", "_max_div", "_early_off", "_tx_probability", "_rx")

    def __init__(self, nodes, rx_lists, schedule, max_diversity, early_off, tx_probability):
        self._nodes = nodes
        self._schedule = schedule
        self._max_div = max_diversity
        self._early_off = early_off
        self._tx_probability = tx_probability
        rx_start = array("q", [0])
        for row in rx_lists:
            rx_start.append(rx_start[-1] + len(row))
        entries = [entry for row in rx_lists for entry in row]
        self._rx = (
            rx_start,
            array("q", [src for src, _, _ in entries]),
            array("q", [quantized for _, quantized, _ in entries]),
            array("d", [miss_q for _, _, miss_q in entries]),
        )

    @classmethod
    def for_round(
        cls, nodes, rx_lists, schedule, max_diversity, early_off, tx_probability
    ) -> "SlotKernel | None":
        """The kernel arguments of a round, or None when the kernel could
        not run it exactly: a transmit probability that is not a double,
        or radio times past 64-bit integers."""
        if not _fits(schedule, tx_probability):
            return None
        return cls(nodes, rx_lists, schedule, max_diversity, early_off, tx_probability)

    def run(self, rng, flood) -> bool:
        """Run the slot loop of ``flood`` in C, drawing from ``rng`` (a
        ``random.Random``).  Returns False, having drawn and changed
        nothing, when the kernel did not load or a slot schedule is not
        plain ints; the caller then runs the Python loop."""
        kernel = minicast_kernel()
        if kernel is None:
            return False
        arm_by_slot = flood.arm_by_slot
        fail_by_slot = flood.fail_by_slot
        if type(flood.max_arm_slot) is not int or not all(
            type(slot) is int for slot in (*arm_by_slot, *fail_by_slot)
        ):
            return False
        nodes = self._nodes
        n = len(nodes)
        schedule = self._schedule
        num_slots = schedule.num_slots
        chain_bits = schedule.chain_length
        words = (chain_bits + 63) // 64
        width = 8 * words

        alive, armed, budget = flood.alive_mask, flood.armed_mask, flood.budget_mask
        flags = array(
            "B",
            [
                (alive >> i & 1) * (_ALIVE | _RADIO)
                | (armed >> i & 1) * (_ARMED | _FORCE)
                | (budget >> i & 1) * _BUDGET
                for i in range(n)
            ],
        )
        know = _words(flood.know, width)
        total_union = _words((flood.total_union,), width)
        req_mask, req_min = _requirements(flood.req_fast, words)
        arm_slot = array("q", [-1] * n)
        for slot, members in arm_by_slot.items():
            if 0 <= slot < num_slots:
                for i in members:
                    arm_slot[i] = slot
        fail_slot = array("q", [-1] * n)
        for slot, members in fail_by_slot.items():
            if 0 <= slot < num_slots:
                for i in members:
                    fail_slot[i] = slot
        tx_us = array("q", bytes(8 * n))
        on_until_us = array("q", flood.on_until_us)
        radio_off_slot = array("q", [-1] * n)
        completion = array(
            "q", [_PENDING if slot is None else slot for slot in flood.completion]
        )
        failed_at = array("q", [-1] * n)
        mt, passed = _mt_state(rng)  # 624 state words, then the position

        slots_run = kernel(
            n,
            words,
            chain_bits,
            num_slots,
            schedule.ntx,
            schedule.packet_slot_us,
            schedule.chain_slot_us,
            self._max_div,
            self._early_off,
            self._tx_probability,
            DEFAULT_PRECISION,
            max(-1, min(flood.max_arm_slot, num_slots)),
            flood.know_uniform,
            *(
                buffer.buffer_info()[0]
                for buffer in (
                    know, total_union, flags, req_mask, req_min, arm_slot, fail_slot,
                    *self._rx, tx_us, on_until_us, radio_off_slot, completion, failed_at, mt,
                )
            ),
        )
        if slots_run < 0:
            raise SimulationError("the MiniCast slot kernel could not allocate its scratch space")
        _set_mt_state(rng, mt, passed)

        flood.know = _views(know, n, width)
        flood.tx_us = tx_us.tolist()
        flood.on_until_us = on_until_us.tolist()
        flood.radio_off_slot = [None if slot < 0 else slot for slot in radio_off_slot]
        flood.completion = [None if slot == _PENDING else slot for slot in completion]
        for slot in sorted(fail_by_slot):
            for i in fail_by_slot[slot]:
                if slot >= 0 and failed_at[i] == slot:
                    flood.failures[nodes[i]] = slot
        flood.slots_run = slots_run
        return True


class ReferenceKernel:
    """One commissioning round's fixed kernel arguments: its schedule,
    capture cap and policy, and the reference loop's receive lists as C
    arrays (listener i's entries are ``rx_start[i]:rx_start[i + 1]`` of
    the source and quantized-PRR arrays: every source above the capture
    floor, strongest first)."""

    __slots__ = ("_nodes", "_index", "_schedule", "_max_div", "_early_off", "_tx_probability", "_rx")

    @classmethod
    def for_round(
        cls, nodes, rx_order, prr, floor, schedule, max_diversity, early_off, tx_probability
    ) -> "ReferenceKernel | None":
        """The kernel arguments of a reference round, or None when the
        kernel could not run it exactly: a transmit probability that is
        not a double, radio times past 64-bit integers, or a receive list
        the reference loop would not walk the same way (a PRR above the
        floor after one at or below it, or a PRR ``random_bitmask``
        rejects)."""
        if not _fits(schedule, tx_probability):
            return None
        index = {node: i for i, node in enumerate(nodes)}
        rx_start = array("q", [0])
        sources = array("q")
        quantized = array("q")
        for dst in nodes:
            row = [(src, prr[src][dst]) for src in rx_order[dst]]
            for k, (src, probability) in enumerate(row):
                if probability <= floor:
                    # The loop stops at the first transmitter at or
                    # below the floor; that ends the list only if every
                    # later source is at or below it too.
                    if not all(rest <= floor for _, rest in row[k:]):
                        return None
                    break
                if not 0.0 <= probability <= 1.0:
                    return None
                sources.append(index[src])
                quantized.append(quantize_probability(probability))
            rx_start.append(len(sources))
        kernel = cls()
        kernel._nodes = nodes
        kernel._index = index
        kernel._schedule = schedule
        kernel._max_div = max_diversity
        kernel._early_off = early_off
        kernel._tx_probability = tx_probability
        kernel._rx = (rx_start, sources, quantized)
        return kernel

    def run(
        self, rng, initial_knowledge, requirements, initiators, alive, failures, arm_schedule
    ) -> MiniCastResult | None:
        """``MiniCastRound._run_reference`` in C, drawing from ``rng`` (a
        ``random.Random``) what the loop draws.  Returns None, having
        drawn nothing, where the kernel did not load or where the loop
        raises or could read an input otherwise: views, requirements and
        slots that are not plain ints, no or unknown initiators, slot
        schedules naming unknown nodes.  The caller then runs the loop."""
        kernel = reference_kernel()
        nodes = self._nodes
        if kernel is None or not nodes:
            return None
        index = self._index
        n = len(nodes)
        schedule = self._schedule
        chain_bits = schedule.chain_length
        num_slots = schedule.num_slots
        words = (chain_bits + 63) // 64
        width = 8 * words

        alive_set = set(nodes) if alive is None else set(alive)
        know = []
        for node in nodes:
            mask = initial_knowledge.get(node, 0)
            if type(mask) is not int or mask >> chain_bits:
                return None
            know.append(mask if node in alive_set else 0)
        if initiators is None:
            first = next((i for i in range(n) if know[i]), None)
            if first is None:
                return None
            initiator_set = {nodes[first]}
        else:
            initiator_set = set(initiators)
            if not initiator_set <= index.keys():
                return None
        flags = array(
            "B",
            [
                (node in alive_set) * (_ALIVE | _RADIO)
                | (node in initiator_set and know[i] != 0) * (_ARMED | _FORCE)
                for i, node in enumerate(nodes)
            ],
        )

        requirements = requirements or {}
        completion = array("q")
        pending = []
        for i, node in enumerate(nodes):
            requirement = requirements.get(node)
            if requirement is not None and not (
                type(requirement) is Requirement
                and type(requirement.mask) is int
                and type(requirement.min_count) is int
            ):
                return None
            if requirement is None or requirement.satisfied_by(know[i]):
                completion.append(-1)
                pending.append(None)
            else:
                completion.append(_PENDING)
                pending.append((requirement.mask, requirement.min_count))
        req_mask, req_min = _requirements(pending, words)

        arm_slot = array("q", [-1] * n)
        max_arm_slot = -1
        for node, slot in (arm_schedule or {}).items():
            i = index.get(node)
            if i is None or type(slot) is not int:
                return None
            if 0 <= slot < num_slots:
                arm_slot[i] = slot
            max_arm_slot = max(max_arm_slot, slot)
        fail_slot = array("q", [-1] * n)
        scheduled_failures = []
        for node, slot in (failures or {}).items():
            i = index.get(node)
            if i is None or type(slot) is not int:
                return None
            if 0 <= slot < num_slots:
                fail_slot[i] = slot
                scheduled_failures.append((slot, i))

        know_words = _words(know, width)
        tx_us = array("q", bytes(8 * n))
        round_duration_us = schedule.round_duration_us
        on_until_us = array("q", [round_duration_us if node in alive_set else 0 for node in nodes])
        radio_off_slot = array("q", [-1] * n)
        failed_at = array("q", [-1] * n)
        mt, passed = _mt_state(rng)

        slots_run = kernel(
            n,
            words,
            chain_bits,
            num_slots,
            schedule.ntx,
            schedule.packet_slot_us,
            schedule.chain_slot_us,
            self._max_div,
            self._early_off,
            self._tx_probability,
            DEFAULT_PRECISION,
            max(-1, min(max_arm_slot, num_slots)),
            *(
                buffer.buffer_info()[0]
                for buffer in (
                    know_words, flags, req_mask, req_min, arm_slot, fail_slot, *self._rx,
                    tx_us, on_until_us, radio_off_slot, completion, failed_at, mt,
                )
            ),
        )
        if slots_run < 0:
            raise SimulationError("the MiniCast reference kernel could not allocate its scratch space")
        _set_mt_state(rng, mt, passed)

        tx = tx_us.tolist()
        on_until = on_until_us.tolist()
        # Failures in the order the loop records them: by slot, then in
        # the order of the schedule.
        scheduled_failures.sort(key=lambda entry: entry[0])
        return MiniCastResult(
            knowledge=dict(zip(nodes, _views(know_words, n, width))),
            completion_slot={
                node: None if slot == _PENDING else slot for node, slot in zip(nodes, completion)
            },
            tx_us=dict(zip(nodes, tx)),
            rx_us={node: max(0, on_until[i] - tx[i]) for i, node in enumerate(nodes)},
            radio_off_slot={
                node: None if slot < 0 else slot for node, slot in zip(nodes, radio_off_slot)
            },
            slots_run=slots_run,
            schedule=schedule,
            failures={nodes[i]: slot for slot, i in scheduled_failures if failed_at[i] == slot},
        )
