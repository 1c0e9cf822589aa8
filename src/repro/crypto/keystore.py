"""Pairwise key pre-distribution.

The paper assumes "a key ... already shared with the destination node
during the bootstrapping phase".  We model that assumption faithfully: a
trusted setup derives one AES-128 key per unordered node pair from a
network master secret, and each node's :class:`PairwiseKeyStore` holds the
keys involving that node.  Key derivation is deterministic so both ends of
a pair independently agree on the key — exactly how a commissioning tool
would provision a real deployment.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from repro.crypto.aes import AES128
from repro.errors import CryptoError, KeyNotFoundError


def derive_pairwise_key(master_secret: bytes, node_a: int, node_b: int) -> bytes:
    """Derive the AES-128 key for the unordered pair ``{node_a, node_b}``.

    Symmetric in its node arguments; distinct pairs get independent keys
    (HKDF-style extract via SHA-256 over a canonical encoding).
    """
    if node_a == node_b:
        raise CryptoError(f"no pairwise key for a node with itself ({node_a})")
    if node_a < 0 or node_b < 0:
        raise CryptoError(f"node ids must be >= 0, got {node_a}, {node_b}")
    low, high = sorted((node_a, node_b))
    material = (
        b"repro-pairwise-key-v1|"
        + master_secret
        + b"|"
        + low.to_bytes(4, "big")
        + high.to_bytes(4, "big")
    )
    return hashlib.sha256(material).digest()[:16]


class PairwiseKeyStore:
    """The key material held by one node after bootstrapping.

    Stores AES cipher objects keyed by peer id; cipher schedules are
    expanded once at installation time (mirroring how firmware loads keys
    into the crypto peripheral once, not per packet).
    """

    __slots__ = ("_node_id", "_ciphers")

    def __init__(self, node_id: int):
        if node_id < 0:
            raise CryptoError(f"node id must be >= 0, got {node_id}")
        self._node_id = node_id
        self._ciphers: dict[int, AES128] = {}

    @property
    def node_id(self) -> int:
        """Owner of this key store."""
        return self._node_id

    @classmethod
    def provision(
        cls,
        node_id: int,
        peers: Iterable[int],
        master_secret: bytes,
    ) -> "PairwiseKeyStore":
        """Build a fully provisioned store for ``node_id`` against ``peers``."""
        store = cls(node_id)
        store.install_keys(
            {
                peer: derive_pairwise_key(master_secret, node_id, peer)
                for peer in peers
                if peer != node_id
            }
        )
        return store

    def install_keys(self, keys: Mapping[int, bytes]) -> None:
        """Install (or replace) the key shared with each peer of ``keys``,
        their schedules expanded together (:meth:`AES128.many`)."""
        if self._node_id in keys:
            raise CryptoError("cannot install a key with oneself")
        self._ciphers.update(zip(keys, AES128.many(keys.values())))

    def cipher_for(self, peer_id: int) -> AES128:
        """The AES cipher shared with ``peer_id``.

        Raises :class:`KeyNotFoundError` when no key was provisioned, which
        a caller should treat as "this destination is outside my
        pre-determined neighbour set".
        """
        cipher = self._ciphers.get(peer_id)
        if cipher is None:
            raise KeyNotFoundError(
                f"node {self._node_id} holds no key for peer {peer_id}"
            )
        return cipher

    def peers(self) -> list[int]:
        """Sorted list of peers this node shares a key with."""
        return sorted(self._ciphers)

    def __len__(self) -> int:
        return len(self._ciphers)

    def __repr__(self) -> str:
        return f"PairwiseKeyStore(node={self._node_id}, peers={len(self._ciphers)})"
