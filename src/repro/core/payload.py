"""Packet data path: share encryption and sum serialization.

This module is where bytes actually get built and parsed:

* **Share packets** (sharing phase) — a field element packed into one
  16-byte block, AES-128-CTR encrypted under the (source, destination)
  pairwise key with a per-round nonce, plus a truncated CBC-MAC tag under
  an independently derived MAC key.  The paper: "each packet is encrypted
  using AES-128" with keys "already shared ... during the bootstrapping
  phase".
* **Sum packets** (reconstruction phase) — plain text per the paper
  ("the reconstruction phase runs in plane text"): the field sum plus a
  contributor bitmap that lets reconstructors group sums by contributor
  set (the consistency mechanism DESIGN.md §5 describes).

A :class:`StubShareCodec` with the same interface supports
:class:`repro.core.config.CryptoMode.STUB` — identical sizes and layout,
no cipher work — so big simulation sweeps don't pay for cryptography that
cannot change the measured metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keystore import PairwiseKeyStore
from repro.crypto.mac import cbc_mac, check_tag_length, verify_mac
from repro.crypto.modes import ctr_transform
from repro.errors import AuthenticationError, CryptoError, PacketError
from repro.field.prime_field import FieldElement, PrimeField

#: Width of the encrypted share value field (one AES block).
SHARE_BLOCK_BYTES = 16


@dataclass(frozen=True, slots=True)
class SharePacket:
    """Wire form of one sharing-phase sub-slot payload."""

    source: int
    destination: int
    ciphertext: bytes
    tag: bytes


class RealShareCodec:
    """AES-128-CTR + CBC-MAC share protection under pairwise keys.

    Each node pair has two independent keys (encryption, MAC) derived
    from the network master secret; the CTR nonce binds round, source and
    destination so no (key, nonce) pair ever repeats across a campaign.
    """

    __slots__ = ("_enc_store", "_mac_store", "_tag_bytes")

    def __init__(
        self,
        node_id: int,
        peers,
        master_secret: bytes,
        tag_bytes: int = 4,
    ):
        check_tag_length(tag_bytes)
        peers = list(peers)
        self._enc_store = PairwiseKeyStore.provision(node_id, peers, master_secret + b"|enc")
        self._mac_store = PairwiseKeyStore.provision(node_id, peers, master_secret + b"|mac")
        self._tag_bytes = tag_bytes

    @property
    def node_id(self) -> int:
        """The node this codec belongs to."""
        return self._enc_store.node_id

    @staticmethod
    def _nonce(round_nonce: int, source: int, destination: int) -> bytes:
        return (
            round_nonce.to_bytes(8, "big")
            + source.to_bytes(4, "big")
            + destination.to_bytes(4, "big")
        )

    def ciphers_for(self, peer: int):
        """(encryption, MAC) cipher pair shared with ``peer``.

        Read once per pair at commissioning, to build the
        :class:`PairKeyTable` of the batched packet pipeline.
        """
        return self._enc_store.cipher_for(peer), self._mac_store.cipher_for(peer)

    @property
    def tag_bytes(self) -> int:
        """Truncated MAC tag length carried on the wire."""
        return self._tag_bytes

    def supports_batch(self) -> bool:
        """Whether this codec's ciphers can feed the vectorized pipeline.

        Requires table-mode ciphers (the batch kernel reads their word
        key schedules); a codec built while the fast path was disabled
        reports False and keeps the per-packet path.
        """
        peers = self._enc_store.peers()
        if not peers:
            return False
        return self._enc_store.cipher_for(peers[0]).uses_tables

    def encrypt_share(
        self,
        destination: int,
        value: FieldElement,
        round_nonce: int,
    ) -> SharePacket:
        """Encrypt one share destined for ``destination``."""
        source = self.node_id
        plaintext = value.value.to_bytes(SHARE_BLOCK_BYTES, "big")
        cipher = self._enc_store.cipher_for(destination)
        nonce = self._nonce(round_nonce, source, destination)
        ciphertext = ctr_transform(cipher, nonce, plaintext)
        mac_cipher = self._mac_store.cipher_for(destination)
        tag = cbc_mac(mac_cipher, nonce + ciphertext, self._tag_bytes)
        return SharePacket(
            source=source, destination=destination, ciphertext=ciphertext, tag=tag
        )

    def decrypt_share(
        self,
        packet: SharePacket,
        field: PrimeField,
        round_nonce: int,
    ) -> FieldElement:
        """Authenticate and decrypt a share addressed to this node.

        Raises :class:`AuthenticationError` on tag mismatch and
        :class:`CryptoError` on a non-canonical decrypted value — both of
        which a receiver treats as "drop the packet".
        """
        if packet.destination != self.node_id:
            raise CryptoError(
                f"packet for node {packet.destination} handed to node "
                f"{self.node_id}"
            )
        nonce = self._nonce(round_nonce, packet.source, packet.destination)
        mac_cipher = self._mac_store.cipher_for(packet.source)
        verify_mac(mac_cipher, nonce + packet.ciphertext, packet.tag, self._tag_bytes)
        cipher = self._enc_store.cipher_for(packet.source)
        plaintext = ctr_transform(cipher, nonce, packet.ciphertext)
        value = int.from_bytes(plaintext, "big")
        if value >= field.prime:
            raise CryptoError("decrypted share is not a canonical field element")
        return field(value)


#: Precomputed stub checksum tags: tag value (0..250) → tag bytes, one
#: table per tag width.  Saves two allocations per stub packet.
_STUB_TAG_TABLES: dict[int, tuple[bytes, ...]] = {}


def _stub_tags(tag_bytes: int) -> tuple[bytes, ...]:
    table = _STUB_TAG_TABLES.get(tag_bytes)
    if table is None:
        table = tuple(bytes([value]) * tag_bytes for value in range(251))
        _STUB_TAG_TABLES[tag_bytes] = table
    return table


class StubShareCodec:
    """Zero-cost stand-in with identical packet shapes.

    The "ciphertext" is the plaintext XORed with a (source, destination,
    round) tag, so accidentally reading a stub packet at the wrong node
    still fails loudly, and the tag is a 4-byte checksum.  Only for
    metric sweeps; privacy tests always use :class:`RealShareCodec`.
    """

    __slots__ = ("_node_id", "_tag_bytes", "_tags")

    def __init__(self, node_id: int, tag_bytes: int = 4):
        self._node_id = node_id
        self._tag_bytes = tag_bytes
        self._tags = _stub_tags(tag_bytes)

    @property
    def node_id(self) -> int:
        """The node this codec belongs to."""
        return self._node_id

    @staticmethod
    def _pad(round_nonce: int, source: int, destination: int) -> int:
        # & (2^128 - 1) is the same reduction as % 2^128 for non-negative
        # operands, without the division.
        return (
            round_nonce * 0x9E3779B97F4A7C15 + source * 0x100000001B3 + destination
        ) & ((1 << (8 * SHARE_BLOCK_BYTES)) - 1)

    def supports_batch(self) -> bool:
        """The stub pipeline always batches (pure-int ops, no numpy)."""
        return True

    def encrypt_share(
        self, destination: int, value: FieldElement, round_nonce: int
    ) -> SharePacket:
        """Tag-XOR 'encryption' with real packet dimensions."""
        plaintext = value.value ^ self._pad(round_nonce, self._node_id, destination)
        ciphertext = plaintext.to_bytes(SHARE_BLOCK_BYTES, "big")
        tag = self._tags[sum(ciphertext) % 251]
        return SharePacket(
            source=self._node_id,
            destination=destination,
            ciphertext=ciphertext,
            tag=tag,
        )

    def decrypt_share(
        self, packet: SharePacket, field: PrimeField, round_nonce: int
    ) -> FieldElement:
        """Inverse of the tag-XOR; checks the checksum tag."""
        if packet.destination != self._node_id:
            raise CryptoError(
                f"packet for node {packet.destination} handed to node "
                f"{self._node_id}"
            )
        expected_tag = self._tags[sum(packet.ciphertext) % 251]
        if packet.tag != expected_tag:
            raise AuthenticationError("stub tag mismatch")
        value = int.from_bytes(packet.ciphertext, "big") ^ self._pad(
            round_nonce, packet.source, packet.destination
        )
        if value >= field.prime:
            raise CryptoError("stub share is not a canonical field element")
        return field(value)


# -- batched share protection (numpy-accelerated REAL mode) -------------------
#
# A sharing round protects hundreds of packets under independent pairwise
# keys; batching amortises the AES round function across all of them (see
# :mod:`repro.crypto.aesbatch`).  A round's packets stay lanes of word
# arrays from encryption to decryption: no per-packet object, no
# per-packet key lookup.  Outputs are bit-identical to the per-packet
# methods above, and every helper here requires the caller to have
# checked ``aesbatch.HAVE_NUMPY`` (numpy is imported on first use, so
# STUB-only and service processes never load it).

#: Below this many packets the numpy setup costs more than it saves.
BATCH_THRESHOLD = 8


class PairKeyTable:
    """Every ordered (holder, peer) pairwise key of a deployment, as columns.

    Built once per engine, at commissioning, from its codecs.  Column
    ``columns[h, p]`` of :attr:`enc` / :attr:`mac` (``(44, P)`` uint32
    key layouts) holds the schedule node ``h`` uses with peer ``p``, by
    node position in :attr:`positions`; the diagonal is ``-1``.  Senders
    read ``columns[src, dst]`` and receivers ``columns[dst, src]``: each
    side uses its own key, as on the device.
    """

    __slots__ = ("positions", "columns", "enc", "mac", "tag_bytes")

    def __init__(self, codecs: "dict[int, RealShareCodec]"):
        import numpy as np

        nodes = sorted(codecs)
        self.positions = {node: position for position, node in enumerate(nodes)}
        self.columns = np.full((len(nodes), len(nodes)), -1, dtype=np.intp)
        enc_words = []
        mac_words = []
        for h, holder in enumerate(nodes):
            for p, peer in enumerate(nodes):
                if p == h:
                    continue
                self.columns[h, p] = len(enc_words)
                enc, mac = codecs[holder].ciphers_for(peer)
                enc_words.append(enc._enc_words)
                mac_words.append(mac._enc_words)
        self.enc = np.ascontiguousarray(np.array(enc_words, dtype=np.uint32).T)
        self.mac = np.ascontiguousarray(np.array(mac_words, dtype=np.uint32).T)
        self.tag_bytes = codecs[nodes[0]].tag_bytes


class LanePlan:
    """The packet lanes of one sharing chain, fixed per (sources, destinations).

    Lane order is source-major: every ``(src, dst)`` pair with ``dst !=
    src``, in the order of ``sources`` then ``destinations``.  Per lane
    the plan holds the node ids, the sender's and receiver's key columns
    in :attr:`keys`, the destination's row in ``destinations`` and the
    lane's sub-slot in the chain ``layout``.
    """

    __slots__ = (
        "keys",
        "source",
        "destination",
        "send",
        "receive",
        "row",
        "chain",
        "view_bytes",
    )

    def __init__(self, keys: PairKeyTable, sources, destinations, layout):
        import numpy as np

        pairs = [(src, dst) for src in sources for dst in destinations if dst != src]
        rows = {dst: row for row, dst in enumerate(destinations)}
        positions = keys.positions
        src_pos = [positions[src] for src, _ in pairs]
        dst_pos = [positions[dst] for _, dst in pairs]
        self.keys = keys
        self.source = np.array([src for src, _ in pairs], dtype=np.int64)
        self.destination = np.array([dst for _, dst in pairs], dtype=np.int64)
        self.send = keys.columns[src_pos, dst_pos]
        self.receive = keys.columns[dst_pos, src_pos]
        self.row = np.array([rows[dst] for _, dst in pairs], dtype=np.intp)
        self.chain = np.array(
            [layout.index_of(src, dst) for src, dst in pairs], dtype=np.intp
        )
        self.view_bytes = (len(layout) + 7) // 8

    def __len__(self) -> int:
        return len(self.source)

    def delivered(self, views: "list[int]"):
        """Indices of the lanes whose sub-slot their destination received.

        ``views[row]`` is the chain bitmask destination ``row`` knows (0
        for one that takes no part).  One bit matrix over every view and
        one gather replace a per-bit walk of each view.
        """
        import numpy as np

        raw = b"".join([view.to_bytes(self.view_bytes, "little") for view in views])
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(len(views), -1),
            axis=1,
            bitorder="little",
        )
        return np.flatnonzero(bits[self.row, self.chain])


class ShareLanes:
    """One round's protected shares: ciphertext and MAC words per lane.

    Column ``i`` of :attr:`ciphertext` and :attr:`mac` (``(4, N)`` word
    states) is lane ``i`` of :attr:`plan`.  Only the first ``tag_bytes``
    bytes of each MAC travel on the wire; :meth:`packet` is that wire
    form.
    """

    __slots__ = ("plan", "ciphertext", "mac")

    def __init__(self, plan: LanePlan, ciphertext, mac):
        self.plan = plan
        self.ciphertext = ciphertext
        self.mac = mac

    def packet(self, lane: int) -> SharePacket:
        """Lane ``lane`` as the packet :meth:`RealShareCodec.encrypt_share` builds."""
        words = [int(word) for word in self.ciphertext[:, lane]]
        tag_words = [int(word) for word in self.mac[:, lane]]
        return SharePacket(
            source=int(self.plan.source[lane]),
            destination=int(self.plan.destination[lane]),
            ciphertext=b"".join(word.to_bytes(4, "big") for word in words),
            tag=b"".join(word.to_bytes(4, "big") for word in tag_words)[
                : self.plan.keys.tag_bytes
            ],
        )


def _nonce_words(round_nonce: int, sources, destinations):
    """:meth:`RealShareCodec._nonce` per lane, as a ``(4, N)`` word state."""
    import numpy as np

    nonce = np.empty((4, len(sources)), dtype=np.int64)
    nonce[0] = round_nonce >> 32
    nonce[1] = round_nonce & 0xFFFFFFFF
    nonce[2] = sources
    nonce[3] = destinations
    return nonce


def batch_encrypt_shares(
    plaintexts: "list[int]", plan: LanePlan, round_nonce: int
) -> ShareLanes:
    """Encrypt one share per lane of ``plan``, all in one kernel pass.

    ``plaintexts[i]`` is the share value of lane ``i``.  Lane by lane
    bit-identical to ``encrypt_share`` of the lane's source codec.
    """
    from repro.crypto import aesbatch

    keys = plan.keys
    ciphertext, mac = aesbatch.ctr_cbc_mac(
        keys.enc,
        keys.mac,
        _nonce_words(round_nonce, plan.source, plan.destination),
        aesbatch.words_from_ints(plaintexts),
        columns=plan.send,
    )
    return ShareLanes(plan, ciphertext, mac)


def batch_decrypt_values(
    lanes, sealed: ShareLanes, field: PrimeField, round_nonce: int
) -> list[int | None]:
    """Authenticate and decrypt the received ``lanes`` of ``sealed``.

    Every lane is checked under its receiver's own key columns and the
    nonce the receiver derives.  Returns the decrypted canonical residue
    per lane, or ``None`` where ``decrypt_share`` would have raised (tag
    mismatch, non-canonical value) — the caller treats those as dropped
    packets.
    """
    from repro.crypto import aesbatch

    plan = sealed.plan
    keys = plan.keys
    received_mac = sealed.mac[:, lanes]
    plaintext, expected_mac = aesbatch.ctr_cbc_mac(
        keys.enc,
        keys.mac,
        _nonce_words(round_nonce, plan.source[lanes], plan.destination[lanes]),
        sealed.ciphertext[:, lanes],
        mac_over_input=True,
        columns=plan.receive[lanes],
    )
    # Compare the first tag_bytes bytes of each MAC: whole words, then
    # the leading bytes of a partial word.
    difference = expected_mac ^ received_mac
    whole, partial = divmod(keys.tag_bytes, 4)
    forged = difference[:whole].any(axis=0)
    if partial:
        forged |= (difference[whole] >> (32 - 8 * partial)) != 0
    prime = field.prime
    return [
        None if bad or value >= prime else value
        for value, bad in zip(aesbatch.ints_from_words(plaintext), forged.tolist())
    ]


# -- batched stub share protection (pure-int, no numpy needed) -----------------


def stub_batch_encrypt(
    entries: "list[tuple[StubShareCodec, int, int]]",
    round_nonce: int,
) -> list[SharePacket]:
    """Encrypt many (stub codec, destination, value) shares in one pass.

    Bit-identical to calling ``codec.encrypt_share`` per entry; the win
    is purely interpreter overhead — hoisted pad arithmetic and tag
    tables instead of a method call, two attribute walks and a
    ``FieldElement`` per packet.  STUB campaigns protect thousands of
    packets per sweep, which is why this path exists at all.
    """
    mask = (1 << (8 * SHARE_BLOCK_BYTES)) - 1
    nonce_term = round_nonce * 0x9E3779B97F4A7C15
    packets = []
    for codec, destination, value_int in entries:
        pad = (
            nonce_term + codec._node_id * 0x100000001B3 + destination
        ) & mask
        ciphertext = (value_int ^ pad).to_bytes(SHARE_BLOCK_BYTES, "big")
        packets.append(
            SharePacket(
                source=codec._node_id,
                destination=destination,
                ciphertext=ciphertext,
                tag=codec._tags[sum(ciphertext) % 251],
            )
        )
    return packets


def stub_batch_decrypt(
    entries: "list[tuple[StubShareCodec, SharePacket]]",
    field: PrimeField,
    round_nonce: int,
) -> list[int | None]:
    """Check and un-pad many stub packets; raw residues like the REAL batch.

    ``None`` marks packets the scalar path would reject (tag mismatch,
    non-canonical value, wrong destination is still a hard error).
    """
    mask = (1 << (8 * SHARE_BLOCK_BYTES)) - 1
    nonce_term = round_nonce * 0x9E3779B97F4A7C15
    prime = field.prime
    results: list[int | None] = []
    for codec, packet in entries:
        if packet.destination != codec._node_id:
            raise CryptoError(
                f"packet for node {packet.destination} handed to node "
                f"{codec._node_id}"
            )
        ciphertext = packet.ciphertext
        if packet.tag != codec._tags[sum(ciphertext) % 251]:
            results.append(None)
            continue
        pad = (
            nonce_term + packet.source * 0x100000001B3 + packet.destination
        ) & mask
        value = int.from_bytes(ciphertext, "big") ^ pad
        results.append(value if value < prime else None)
    return results


# -- reconstruction-phase sum packets (plain text) ----------------------------


def encode_sum_packet(
    total: FieldElement,
    contributors,
    num_nodes: int,
    element_size: int,
) -> bytes:
    """Serialize a holder's (sum, contributor bitmap) payload."""
    if any(c < 0 or c >= num_nodes for c in contributors):
        raise PacketError("contributor id outside the network")
    bitmap = 0
    for contributor in contributors:
        bitmap |= 1 << contributor
    bitmap_bytes = (num_nodes + 7) // 8
    return total.value.to_bytes(element_size, "big") + bitmap.to_bytes(
        bitmap_bytes, "big"
    )


def decode_sum_packet(
    payload: bytes,
    field: PrimeField,
    num_nodes: int,
    element_size: int,
) -> tuple[FieldElement, frozenset[int]]:
    """Parse a sum packet back into (sum, contributor set)."""
    bitmap_bytes = (num_nodes + 7) // 8
    if len(payload) != element_size + bitmap_bytes:
        raise PacketError(
            f"sum packet must be {element_size + bitmap_bytes} bytes, "
            f"got {len(payload)}"
        )
    value = int.from_bytes(payload[:element_size], "big")
    if value >= field.prime:
        raise PacketError("sum value is not a canonical field element")
    bitmap = int.from_bytes(payload[element_size:], "big")
    contributors = frozenset(
        node for node in range(num_nodes) if (bitmap >> node) & 1
    )
    return field(value), contributors
