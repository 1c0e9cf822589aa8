"""Sub-slot and chain layouts for the SSS phases.

MiniCast arranges all transmissions as a *chain of packets*: a fixed
sequence of sub-slots, each owned by exactly one source and carrying one
payload, transmitted back-to-back.  The SSS phases use two layouts:

* **Sharing phase** — one sub-slot per (source, destination) pair the
  protocol needs.  S3 uses all ``s × n`` pairs; S4 only ``s × m`` pairs
  (destinations = collectors).  Payload: AES-128-CTR-encrypted field
  element + truncated CBC-MAC tag.
* **Reconstruction phase** — one sub-slot per sum-holder, in plain text
  (the sums are not privacy sensitive), carrying the field sum plus a
  contributor bitmap for consistency checking.

A :class:`ChainLayout` maps sub-slot indices to their
:class:`SubSlotSpec` and back, and knows the PSDU size so the timing
model can price the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import PacketError

#: Sub-slot header: 2 B chain index + 1 B flags (matches MiniCast's
#: per-packet overhead on top of the 802.15.4 PHY header).
SUBSLOT_HEADER_BYTES = 3

#: AES-128 block: every encrypted share is exactly one block.
ENCRYPTED_SHARE_BYTES = 16

#: Truncated CBC-MAC tag carried by sharing-phase packets.
SHARE_TAG_BYTES = 4


def sharing_psdu_bytes() -> int:
    """PSDU size of one sharing-phase sub-slot packet."""
    return SUBSLOT_HEADER_BYTES + ENCRYPTED_SHARE_BYTES + SHARE_TAG_BYTES


def reconstruction_psdu_bytes(num_nodes: int, element_size: int = 8) -> int:
    """PSDU size of one reconstruction-phase sub-slot packet.

    Plain-text field sum (``element_size`` bytes) plus a contributor
    bitmap over all ``num_nodes`` possible sources.
    """
    if num_nodes < 1:
        raise PacketError(f"num_nodes must be >= 1, got {num_nodes}")
    if element_size < 1:
        raise PacketError(f"element_size must be >= 1, got {element_size}")
    bitmap_bytes = (num_nodes + 7) // 8
    return SUBSLOT_HEADER_BYTES + element_size + bitmap_bytes


@dataclass(frozen=True, slots=True)
class SubSlotSpec:
    """Ownership and addressing of one chain sub-slot.

    Attributes:
        index: position in the chain.
        source: node that originates this sub-slot's payload.
        destination: intended decryptor (sharing phase), or ``None`` for
            broadcast plain-text sub-slots (reconstruction phase).
    """

    index: int
    source: int
    destination: int | None = None


class ChainLayout:
    """An ordered chain of sub-slots with index lookups both ways."""

    __slots__ = (
        "_specs",
        "_by_pair",
        "_by_source",
        "_psdu_bytes",
        "_label",
        "_source_masks",
        "_dest_masks",
    )

    def __init__(
        self,
        specs: Sequence[SubSlotSpec],
        psdu_bytes: int,
        label: str = "chain",
    ):
        if not specs:
            raise PacketError("chain must have at least one sub-slot")
        if psdu_bytes < 1:
            raise PacketError(f"psdu_bytes must be >= 1, got {psdu_bytes}")
        for expected, spec in enumerate(specs):
            if spec.index != expected:
                raise PacketError(
                    f"sub-slot index {spec.index} at position {expected}; "
                    "chain indices must be 0..len-1 in order"
                )
        self._specs = tuple(specs)
        self._psdu_bytes = psdu_bytes
        self._label = label
        self._by_pair: dict[tuple[int, int | None], int] = {}
        self._by_source: dict[int, list[int]] = {}
        self._source_masks: dict[int, int] = {}
        self._dest_masks: dict[int | None, int] = {}
        for spec in specs:
            key = (spec.source, spec.destination)
            if key in self._by_pair:
                raise PacketError(
                    f"duplicate sub-slot for source={spec.source}, "
                    f"destination={spec.destination}"
                )
            self._by_pair[key] = spec.index
            self._by_source.setdefault(spec.source, []).append(spec.index)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def sharing(
        cls,
        sources: Iterable[int],
        destinations: Iterable[int],
    ) -> "ChainLayout":
        """Sharing-phase chain: one sub-slot per (source, destination).

        S3 passes every node as destination (chain of ``s × n``); S4
        passes only the collectors (chain of ``s × m``) — the paper's
        first optimization is literally the size of this object.
        """
        destinations = list(destinations)
        specs = []
        index = 0
        for source in sources:
            for destination in destinations:
                specs.append(
                    SubSlotSpec(index=index, source=source, destination=destination)
                )
                index += 1
        return cls(specs, sharing_psdu_bytes(), label="sharing")

    @classmethod
    def reconstruction(
        cls,
        holders: Iterable[int],
        num_nodes: int,
        element_size: int = 8,
    ) -> "ChainLayout":
        """Reconstruction-phase chain: one broadcast sub-slot per holder."""
        specs = [
            SubSlotSpec(index=i, source=holder, destination=None)
            for i, holder in enumerate(holders)
        ]
        return cls(
            specs,
            reconstruction_psdu_bytes(num_nodes, element_size),
            label="reconstruction",
        )

    # -- accessors ------------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable chain name."""
        return self._label

    @property
    def psdu_bytes(self) -> int:
        """PSDU size of each packet in this chain."""
        return self._psdu_bytes

    def __len__(self) -> int:
        return len(self._specs)

    def spec(self, index: int) -> SubSlotSpec:
        """Sub-slot at ``index``."""
        try:
            return self._specs[index]
        except IndexError:
            raise PacketError(
                f"sub-slot {index} out of range (chain has {len(self._specs)})"
            ) from None

    def specs(self) -> tuple[SubSlotSpec, ...]:
        """All sub-slots in order."""
        return self._specs

    def index_of(self, source: int, destination: int | None = None) -> int:
        """Index of the sub-slot owned by (source, destination)."""
        try:
            return self._by_pair[(source, destination)]
        except KeyError:
            raise PacketError(
                f"no sub-slot for source={source}, destination={destination}"
            ) from None

    def source_mask(self, source: int) -> int:
        """Bit mask over the chain of the sub-slots ``source`` originates."""
        cached = self._source_masks.get(source)
        if cached is not None:
            return cached
        mask = 0
        for index in self._by_source.get(source, []):
            mask |= 1 << index
        self._source_masks[source] = mask
        return mask

    def destination_mask(self, destination: int) -> int:
        """Bit mask of sub-slots addressed to ``destination``."""
        cached = self._dest_masks.get(destination)
        if cached is not None:
            return cached
        mask = 0
        for spec in self._specs:
            if spec.destination == destination:
                mask |= 1 << spec.index
        self._dest_masks[destination] = mask
        return mask

    def full_mask(self) -> int:
        """Mask with every sub-slot bit set."""
        return (1 << len(self._specs)) - 1

    def __repr__(self) -> str:
        return (
            f"ChainLayout({self._label!r}, {len(self._specs)} sub-slots, "
            f"psdu={self._psdu_bytes} B)"
        )
