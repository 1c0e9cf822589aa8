"""TDMA round arithmetic.

A MiniCast round is a fixed schedule of *chain slots*.  In each chain
slot one "wave" of synchronized nodes transmits the full chain.  Because
nodes alternate receive/transmit (a reception in slot ``t`` triggers a
transmission in slot ``t + 1``), a node needs about ``2 × NTX`` slots to
spend its transmission budget, and the wave needs about one slot per hop
to reach the network edge.  The scheduled round length is therefore

    slots = depth_hint + 2 × NTX + slack

with a small slack absorbing stragglers.  Real deployments compute this
bound at flash time exactly the same way — nodes cannot detect
network-wide quiescence at runtime, so the schedule *is* the round
duration (what S3 pays), and only a node-local rule can end a node's
participation earlier (what S4 adds).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.phy.radio import RadioTimings

#: Default number of extra chain slots beyond the analytic bound.
DEFAULT_SLACK_SLOTS = 3


def round_slots(ntx: int, depth_hint: int, slack: int = DEFAULT_SLACK_SLOTS) -> int:
    """Scheduled chain-slot count for one MiniCast round."""
    if ntx < 1:
        raise ConfigurationError(f"ntx must be >= 1, got {ntx}")
    if depth_hint < 0:
        raise ConfigurationError(f"depth_hint must be >= 0, got {depth_hint}")
    if slack < 0:
        raise ConfigurationError(f"slack must be >= 0, got {slack}")
    return depth_hint + 2 * ntx + slack


@dataclass(frozen=True, slots=True)
class RoundSchedule:
    """The complete timing of one MiniCast round.

    Attributes:
        chain_length: number of sub-slots per chain.
        psdu_bytes: packet payload size (fixed across the chain).
        ntx: per-node transmission budget.
        num_slots: scheduled number of chain slots.
        timings: the radio timing model used for pricing.
    """

    chain_length: int
    psdu_bytes: int
    ntx: int
    num_slots: int
    timings: RadioTimings

    def __post_init__(self) -> None:
        if self.chain_length < 1:
            raise ConfigurationError(
                f"chain_length must be >= 1, got {self.chain_length}"
            )
        if self.num_slots < 1:
            raise ConfigurationError(f"num_slots must be >= 1, got {self.num_slots}")

    @classmethod
    def plan(
        cls,
        chain_length: int,
        psdu_bytes: int,
        ntx: int,
        depth_hint: int,
        timings: RadioTimings,
        slack: int = DEFAULT_SLACK_SLOTS,
    ) -> "RoundSchedule":
        """Build the schedule from protocol parameters."""
        return cls(
            chain_length=chain_length,
            psdu_bytes=psdu_bytes,
            ntx=ntx,
            num_slots=round_slots(ntx, depth_hint, slack),
            timings=timings,
        )

    @property
    def packet_slot_us(self) -> int:
        """Duration of one sub-slot packet incl. turnaround."""
        return self.timings.packet_slot_us(self.psdu_bytes)

    @property
    def chain_slot_us(self) -> int:
        """Duration of one chain slot."""
        return self.timings.chain_slot_us(self.psdu_bytes, self.chain_length)

    @property
    def round_duration_us(self) -> int:
        """Scheduled wall-clock duration of the whole round."""
        return self.num_slots * self.chain_slot_us

    @property
    def frame_bytes(self) -> int:
        """Full on-air frame size (PHY overhead + PSDU) for PRR lookups."""
        return self.timings.phy_overhead_bytes + self.psdu_bytes

    def __repr__(self) -> str:
        return (
            f"RoundSchedule(chain={self.chain_length}, ntx={self.ntx}, "
            f"slots={self.num_slots}, duration={self.round_duration_us} us)"
        )
