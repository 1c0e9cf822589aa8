"""Simulation substrate shared by the protocol loops.

* :mod:`repro.sim.bitrandom` — fast sampling of Bernoulli bit-masks over
  big integers, the trick that lets pure Python simulate per-packet losses
  on 2000-packet chains at acceptable speed.
* :mod:`repro.sim.seeds` — process-stable seed derivation for campaigns.
* :mod:`repro.sim.battery` — battery lifetime from radio-on time.
"""

from repro.sim.bitrandom import random_bitmask

__all__ = [
    "random_bitmask",
]
