"""A fixed reference workload, timed next to the program's units of work.

The host's speed changes by up to 2x in phases of seconds to minutes.
The benchmark times this reference at the start of every block of work
and reports each block relative to it, so that a phase slows both and
the ratio stays.  The reference is half a pure-Python loop and half
small numpy operations, the two kinds of work the program does; each
alone tracked the program's slowdowns less well than the two together.
"""

from __future__ import annotations

import time

import numpy as np

#: The reference's time on the reference host (2-vCPU Xeon at 2.0 GHz)
#: in a quiet spell.  Times are reported at that speed: a block that took
#: k references is reported as k * REFERENCE_S.
REFERENCE_S = 1.2e-3

_LOOP = 10_000
_ARRAY_OPS = 200
_ARRAY = np.arange(64, dtype=np.int64)


def reference() -> float:
    """Seconds the reference takes now."""
    began = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    for _ in range(_ARRAY_OPS):
        (_ARRAY * 3 + total) % 65521
    return time.perf_counter() - began
