"""Global switch between the reference and fast compute paths.

The library keeps two implementations of every hot primitive:

* the **reference path** — the readable, from-first-principles code the
  reproduction was built on (byte-oriented AES, per-block CTR DRBG,
  ``FieldElement``-based interpolation, the straight-line MiniCast loop);
* the **fast path** — precomputed-table / raw-integer / batched kernels
  that produce *bit-identical* results (enforced by the property tests in
  ``tests/*/test_*fastpath*.py``) at a fraction of the cost.

The fast path is on by default.  It can be disabled globally — for
benchmarking against the reference, or for debugging a suspected fast-path
divergence — via the ``REPRO_FASTPATH=0`` environment variable or, within
a process, the :func:`forced` context manager.

The fast path's kernels are native, all in one library that
:mod:`repro.native` builds with the system compiler on first use and
caches per user: MiniCast's slot loop and the reference loop
commissioning runs (drawing the same random numbers in the same order
as their Python twins), share-packet AES over lanes, the DRBG's AES-CTR
keystream, batched AES key schedules, and GF(2**61 - 1) polynomial
evaluation.  Each gives bit-identical results, and its Python twin
stays as the oracle and the fallback.  With the fast path off a
protocol round never asks for the library
(``tests/core/test_round_pins.py`` holds this).

The flag chooses a kernel, or guards an object that captured it when
it was built (cipher objects, DRBG instances, MiniCast rounds, the pools
holding them); it never forks a caller's own loop, pooling or
memoisation, so a protocol round runs one pipeline under both values.
Components consult it at *construction* time or at cheap call-time
branch points, so toggling the flag affects objects built afterwards,
not objects already in flight.  The flag itself is a plain module
global guarded by the GIL; the context managers are not thread-safe
against concurrent toggling (the microbenchmark is single-threaded) but
*reading* the flag from worker threads is always safe.

**Spawn-worker contract.**  Campaign workers are started with the
``spawn`` method, so nothing in this module (or in the process-wide
commissioning pools) may rely on forked state: every global here is
re-initialised from the environment at import, and the pools start
empty in each worker.  A parent that changed the flag at runtime (e.g.
via :func:`forced`) ships its effective state explicitly — spawn workers
inherit the parent's *environment*, not its module globals — via
:class:`repro.analysis.campaign.WorkerState`, captured before the pool
starts and replayed by the pool initializer.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

_FALSE_VALUES = {"0", "false", "off", "no"}

_enabled: bool = os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in _FALSE_VALUES


def enabled() -> bool:
    """Whether the fast compute path is currently selected."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Set the fast-path flag; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextlib.contextmanager
def forced(flag: bool) -> Iterator[None]:
    """Run a block with the fast-path flag pinned to ``flag``."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


# -- multiprocessing support ---------------------------------------------------


def clear_process_caches() -> None:
    """Empty every process-wide commissioning pool.

    Spawn workers never need this (their pools start empty by
    construction); it exists for tests that must force a rebuild — e.g.
    proving that a disk-cache hit is bit-identical to a fresh bootstrap —
    and as the documented reset point if a long-lived service wants to
    drop commissioning state.  The native library stays loaded: it is
    code, not commissioning state.  Imports live inside the
    function to keep this module dependency-free at import time.
    """
    from repro.core import protocol
    from repro.crypto import prng
    from repro.field import kernels, lagrange
    from repro.phy import link

    with link._TABLE_CACHE_LOCK:
        link._TABLE_CACHE.clear()
    protocol._CODEC_POOL.clear()
    protocol._LAYOUT_POOL.clear()
    prng._CIPHER_POOL.clear()
    kernels._POWER_ROWS.clear()
    lagrange.SHARED_WEIGHTS.clear()
