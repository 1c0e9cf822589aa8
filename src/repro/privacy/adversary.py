"""Semi-honest coalition adversary.

A :class:`Coalition` is a set of corrupted nodes that follow the protocol
faithfully but pool everything they observe.  What a member observes in
an SSS-over-MiniCast round:

* the shares addressed to it (it can decrypt those — it holds the keys);
* the *ciphertexts* of everything else it relayed (useless without keys,
  so not recorded);
* every per-point sum broadcast in the reconstruction phase (plain text
  by design — these are public);
* the reconstructed aggregate (public output).

The interesting question is what the pooled shares reveal about an
honest node's secret, which :mod:`repro.privacy.analysis` quantifies.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SecretSharingError


class Coalition:
    """A semi-honest coalition of corrupted nodes.

    >>> coalition = Coalition([1, 5, 7])
    >>> coalition.size
    3
    """

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[int]):
        member_set = set(members)
        if not member_set:
            raise SecretSharingError("a coalition needs at least one member")
        if any(m < 0 for m in member_set):
            raise SecretSharingError("coalition members must be node ids >= 0")
        self._members = frozenset(member_set)

    @property
    def members(self) -> frozenset[int]:
        """The corrupted node ids."""
        return self._members

    @property
    def size(self) -> int:
        """Coalition cardinality (compare against the degree p)."""
        return len(self._members)

    def breaches_threshold(self, degree: int) -> bool:
        """Whether this coalition exceeds the collusion threshold."""
        return self.size > degree

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def __repr__(self) -> str:
        return f"Coalition({sorted(self._members)})"
