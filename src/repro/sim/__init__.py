"""Discrete-event wireless simulation substrate.

* :mod:`repro.sim.engine` — a minimal, fast discrete-event engine with an
  integer-microsecond clock.
* :mod:`repro.sim.energy` — per-node radio state machine + radio-on-time
  accounting (the paper's second metric).
* :mod:`repro.sim.node` — the per-node container protocols hang state off.
* :mod:`repro.sim.trace` — bounded in-memory trace recording.
* :mod:`repro.sim.bitrandom` — fast sampling of Bernoulli bit-masks over
  big integers, the trick that lets pure Python simulate per-packet losses
  on 2000-packet chains at acceptable speed.
"""

from repro.sim.engine import Simulator
from repro.sim.energy import RadioEnergyMeter, RadioState
from repro.sim.node import SimNode
from repro.sim.trace import TraceEvent, TraceRecorder
from repro.sim.bitrandom import random_bitmask, exact_random_bitmask

__all__ = [
    "Simulator",
    "RadioEnergyMeter",
    "RadioState",
    "SimNode",
    "TraceEvent",
    "TraceRecorder",
    "random_bitmask",
    "exact_random_bitmask",
]
