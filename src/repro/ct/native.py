"""Build, load and call the native MiniCast slot kernel (``minicast_kernel.c``).

The kernel is compiled with the system C compiler the first time a
fast-path MiniCast round asks for it, never at import, and at most once
per process: the outcome (the loaded function, or ``None``) is
remembered, so a host without a compiler pays for one failed attempt,
not one per round.  Any failure — no compiler, a cache directory that is
unwritable or not private, a library that will not load — yields
``None`` and the caller runs the Python slot loop instead, without an
error.

The shared library is cached per user, not per run: under
``$XDG_CACHE_HOME`` (else ``~/.cache``) in ``repro-native/``, else in a
per-user directory under the system temp directory, both created mode
0700 and used only when owned by this user and writable by no one else.
The file name carries the SHA-256 of the source, the compiler flags and
the platform tag, so an edited source or another architecture gets its
own build.  It is deliberately not under ``REPRO_CACHE_DIR``, which holds
commissioning state that callers point at fresh directories; a compiler
run there would land in every cold start.  A build is written under a
temporary name and moved into place with ``os.replace``, so processes
that build concurrently each load a complete library.

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
import os
import sys
import threading
from array import array

from repro.errors import SimulationError
from repro.sim.bitrandom import DEFAULT_PRECISION

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "minicast_kernel.c")
#: No fused multiply-adds: the kernel's float arithmetic must round as
#: Python's does.  No -ffast-math and no -march=native for the same
#: reason, and so a cached build runs on any host of the platform.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120

#: Node flags and the unmet-requirement completion of ``minicast_kernel.c``.
_ALIVE, _RADIO, _ARMED, _FORCE, _BUDGET = 1, 2, 4, 8, 16
_PENDING = -2
#: Radio times and budgets below this fit the kernel's 64-bit arithmetic.
_LIMIT = 1 << 62

_UNTRIED = object()
_kernel = _UNTRIED
_load_lock = threading.Lock()


def minicast_kernel():
    """The kernel's ``minicast_slots`` function, or ``None`` where it
    cannot be built or loaded in this process."""
    global _kernel
    if _kernel is _UNTRIED:
        with _load_lock:
            if _kernel is _UNTRIED:
                _kernel = _load()
    return _kernel


def compiler() -> str | None:
    """The C compiler on ``PATH`` (``cc``, else ``gcc``), if any."""
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def _load():
    try:
        path = _library()
        if path is None:
            return None
        import ctypes

        function = ctypes.CDLL(path).minicast_slots
    except (OSError, ImportError, AttributeError):
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    function.argtypes = [i64] * 9 + [f64] + [i64] * 3 + [ptr] * 17
    function.restype = i64
    return function


def _library() -> str | None:
    """Path of a built library, building it on a cache miss.  A hit
    imports only ``hashlib``, which keeps the first round of a fresh
    process (a spawn worker, a cold start) cheap."""
    import hashlib

    with open(SOURCE, "rb") as handle:
        source = handle.read()
    platform = f"{sys.platform}-{os.uname().machine}"
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), platform.encode()])
    ).hexdigest()[:24]
    directory = _cache_directory()
    if directory is None:
        return None
    path = os.path.join(directory, f"minicast-{key}.so")
    if not os.path.exists(path):
        cc = compiler()
        if cc is None or not _build(cc, directory, path):
            return None
    return path if _private(path) else None


def _build(cc: str, directory: str, path: str) -> bool:
    """Compile to a temporary name in ``directory``, then move it to
    ``path``; False when the compiler fails."""
    import subprocess
    import tempfile

    handle, temporary = tempfile.mkstemp(dir=directory, prefix=".minicast-", suffix=".so")
    os.close(handle)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", temporary, SOURCE, "-lm"],
            check=True,
            capture_output=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        os.chmod(temporary, 0o700)
        os.replace(temporary, path)
    except subprocess.SubprocessError:
        return False
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return True


def _cache_directory() -> str | None:
    """The first usable private per-user directory for the library."""
    import tempfile

    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for directory in (
        os.path.join(base, "repro-native"),
        os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}"),
    ):
        if not os.path.isabs(directory):
            continue  # no home directory: never build relative to the cwd
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
        except OSError:
            continue
        if _private(directory) and os.access(directory, os.W_OK):
            return directory
    return None


def _private(path: str) -> bool:
    """Owned by this user and writable by no one else."""
    try:
        status = os.stat(path)
    except OSError:
        return False
    return status.st_uid == os.getuid() and not status.st_mode & 0o022


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
