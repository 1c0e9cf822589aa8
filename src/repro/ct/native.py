"""The native MiniCast slot kernel's calling convention (``minicast_kernel.c``).

The kernel is one function of the package's native library, built and
loaded by :mod:`repro.native`; where that library is missing,
:func:`minicast_kernel` is ``None`` and the Python slot loop runs.

:class:`SlotKernel` is the call: a fast-path :class:`~repro.ct.minicast
.MiniCastRound` builds one at construction (its receive lists as C
arrays), and each round moves the prologue's state into word arrays,
the ``random.Random`` state in through ``getstate`` and back out through
``setstate``, and the kernel's outputs back into the state the shared
epilogue reads.  Everything that knows the kernel's argument order, flag
bits and sentinels is in this module.
"""

from __future__ import annotations

import math
from array import array

from repro import native
from repro.errors import SimulationError
from repro.sim.bitrandom import DEFAULT_PRECISION

#: ``minicast_slots``: int64 result; 9 int64s, a double, 3 int64s, 17 arrays.
SIGNATURE = "q" + "q" * 9 + "d" + "q" * 3 + "p" * 17
#: Node flags and the unmet-requirement completion of ``minicast_kernel.c``.
_ALIVE, _RADIO, _ARMED, _FORCE, _BUDGET = 1, 2, 4, 8, 16
_PENDING = -2
#: Radio times and budgets below this fit the kernel's 64-bit arithmetic.
_LIMIT = 1 << 62


def minicast_kernel():
    """The kernel's ``minicast_slots`` function, or ``None`` where the
    native library cannot be built or loaded in this process."""
    return native.kernel("minicast_slots", SIGNATURE)


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
        if not (
            float(tx_probability) == tx_probability
            and abs(schedule.ntx) < _LIMIT
            and schedule.num_slots
            * (schedule.chain_slot_us + schedule.chain_length * schedule.packet_slot_us)
            < _LIMIT
        ):
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
        know = array("Q", b"".join([view.to_bytes(width, "little") for view in flood.know]))
        total_union = array("Q", flood.total_union.to_bytes(width, "little"))
        # Only pending nodes carry a requirement; bits past the chain and
        # counts past its width change no comparison.
        full = (1 << 64 * words) - 1
        unmet = 64 * words + 1
        encoded = {None: (bytes(width), 0)}  # nodes often share one requirement
        req_masks, req_mins = [], []
        for req in flood.req_fast:
            pair = encoded.get(req)
            if pair is None:
                pair = encoded[req] = (
                    (req[0] & full).to_bytes(width, "little"),
                    min(math.ceil(req[1]), unmet),
                )
            req_masks.append(pair[0])
            req_mins.append(pair[1])
        req_mask = array("Q", b"".join(req_masks))
        req_min = array("q", req_mins)
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
        version, state, gauss_next = rng.getstate()
        mt = array("I", state)  # 624 state words, then the position

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
        rng.setstate((version, tuple(mt), gauss_next))

        raw = know.tobytes()
        flood.know = [
            int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(n)
        ]
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
