"""Concurrent-transmission protocol: MiniCast.

* :mod:`repro.ct.packet` — sub-slot/chain layouts and payload sizing for
  the two SSS phases.
* :mod:`repro.ct.slots` — TDMA round arithmetic (chain-slot durations,
  round lengths as a function of NTX and network depth).
* :mod:`repro.ct.minicast` — the chain-of-packets many-to-many round
  (Saha et al., DCOSS 2017) that hosts both SSS phases.
* :mod:`repro.ct.coverage` — the NTX → reachability profiler the S4
  bootstrapping phase relies on.
"""

from repro.ct.packet import (
    ChainLayout,
    SubSlotSpec,
    reconstruction_psdu_bytes,
    sharing_psdu_bytes,
)
from repro.ct.slots import RoundSchedule, round_slots
from repro.ct.minicast import MiniCastRound, MiniCastResult, RadioOffPolicy
from repro.ct.coverage import CoverageProfile, profile_coverage

__all__ = [
    "ChainLayout",
    "SubSlotSpec",
    "sharing_psdu_bytes",
    "reconstruction_psdu_bytes",
    "RoundSchedule",
    "round_slots",
    "MiniCastRound",
    "MiniCastResult",
    "RadioOffPolicy",
    "CoverageProfile",
    "profile_coverage",
]
