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

from array import array
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
        """Whether this codec's ciphers can feed the share-lane pipeline.

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
        """The stub pipeline always batches (pure-int ops)."""
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


# -- batched share protection (REAL mode, in the native library) --------------
#
# A sharing round protects hundreds of packets under independent pairwise
# keys; one native kernel call protects all of them (see
# :mod:`repro.crypto.aesbatch`).  A round's packets stay lanes of plain
# ``array`` buffers from encryption to decryption: no per-packet object,
# no per-packet key lookup.  Outputs are bit-identical to the per-packet
# methods above, and every helper here requires the caller to have
# checked ``aesbatch.lanes_available()``: where the library did not load,
# the per-packet codec is the path.

#: Below this many packets a round keeps the per-packet codec.
BATCH_THRESHOLD = 8


class PairKeyTable:
    """Every ordered (holder, peer) pairwise key of a deployment, as columns.

    Built once per engine, at commissioning, from its codecs.  Column
    ``columns[holder, peer]`` of :attr:`enc` / :attr:`mac` (44 key
    schedule words per column, back to back in an ``array("I")``) holds
    the schedule ``holder`` uses with ``peer``.  Senders read
    ``columns[src, dst]`` and receivers ``columns[dst, src]``: each side
    uses its own key, as on the device.
    """

    __slots__ = ("columns", "enc", "mac", "tag_bytes")

    def __init__(self, codecs: "dict[int, RealShareCodec]"):
        nodes = sorted(codecs)
        self.columns: dict[tuple[int, int], int] = {}
        self.enc = array("I")
        self.mac = array("I")
        for holder in nodes:
            for peer in nodes:
                if peer == holder:
                    continue
                self.columns[holder, peer] = len(self.columns)
                enc, mac = codecs[holder].ciphers_for(peer)
                self.enc.extend(enc._enc_words)
                self.mac.extend(mac._enc_words)
        self.tag_bytes = codecs[nodes[0]].tag_bytes


class LanePlan:
    """The packet lanes of one sharing chain, fixed per (sources, destinations).

    Lane order is source-major: every ``(src, dst)`` pair with ``dst !=
    src``, in the order of ``sources`` then ``destinations``.  Per lane
    the plan holds (``array("q")`` each) the node ids, the sender's and
    receiver's key columns in :attr:`keys`, the destination's row in
    ``destinations`` and the lane's sub-slot in the chain ``layout``.
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
        pairs = [(src, dst) for src in sources for dst in destinations if dst != src]
        rows = {dst: row for row, dst in enumerate(destinations)}
        columns = keys.columns
        self.keys = keys
        self.source = array("q", [src for src, _ in pairs])
        self.destination = array("q", [dst for _, dst in pairs])
        self.send = array("q", [columns[pair] for pair in pairs])
        self.receive = array("q", [columns[dst, src] for src, dst in pairs])
        self.row = array("q", [rows[dst] for _, dst in pairs])
        self.chain = array("q", [layout.index_of(src, dst) for src, dst in pairs])
        self.view_bytes = (len(layout) + 7) // 8

    def __len__(self) -> int:
        return len(self.source)

    def delivered(self, views: "list[int]") -> array:
        """Indices of the lanes whose sub-slot their destination received.

        ``views[row]`` is the chain bitmask destination ``row`` knows (0
        for one that takes no part).  One kernel pass over every view
        replaces a per-bit walk of each.
        """
        from repro.crypto import aesbatch

        view_bytes = self.view_bytes
        raw = b"".join([view.to_bytes(view_bytes, "little") for view in views])
        return aesbatch.delivered_lanes(self.row, self.chain, raw, view_bytes)


class ShareLanes:
    """One round's protected shares: ciphertext and MAC words per lane.

    Words ``2 * i`` and ``2 * i + 1`` of :attr:`ciphertext` and
    :attr:`mac` (``array("Q")``, high word first) are lane ``i`` of
    :attr:`plan`.  Only the first ``tag_bytes`` bytes of each MAC travel
    on the wire; :meth:`packet` is that wire form.
    """

    __slots__ = ("plan", "ciphertext", "mac")

    def __init__(self, plan: LanePlan, ciphertext: array, mac: array):
        self.plan = plan
        self.ciphertext = ciphertext
        self.mac = mac

    def packet(self, lane: int) -> SharePacket:
        """Lane ``lane`` as the packet :meth:`RealShareCodec.encrypt_share` builds."""
        ciphertext = self.ciphertext[2 * lane] << 64 | self.ciphertext[2 * lane + 1]
        mac = self.mac[2 * lane] << 64 | self.mac[2 * lane + 1]
        return SharePacket(
            source=self.plan.source[lane],
            destination=self.plan.destination[lane],
            ciphertext=ciphertext.to_bytes(SHARE_BLOCK_BYTES, "big"),
            tag=mac.to_bytes(SHARE_BLOCK_BYTES, "big")[: self.plan.keys.tag_bytes],
        )


def batch_encrypt_shares(
    plaintexts: "list[int]", plan: LanePlan, round_nonce: int
) -> ShareLanes:
    """Encrypt one share per lane of ``plan``, all in one kernel pass.

    ``plaintexts[i]`` is the share value of lane ``i``.  Lane by lane
    bit-identical to ``encrypt_share`` of the lane's source codec.
    """
    from repro.crypto import aesbatch

    try:  # values below 2**64 (GF(2**61 - 1) shares): one word per lane
        data, width = array("Q", plaintexts), 1
    except OverflowError:
        data = array("Q", [word for value in plaintexts for word in divmod(value, 1 << 64)])
        width = 2
    keys = plan.keys
    ciphertext, mac = aesbatch.ctr_cbc_mac(
        keys.enc, keys.mac, plan.send, plan.source, plan.destination, round_nonce, data, width
    )
    return ShareLanes(plan, ciphertext, mac)


def batch_decrypt_values(
    lanes: array, sealed: ShareLanes, field: PrimeField, round_nonce: int
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
    if not isinstance(lanes, array):
        lanes = array("q", lanes)
    plaintext, rejected = aesbatch.ctr_cbc_mac(
        keys.enc,
        keys.mac,
        plan.receive,
        plan.source,
        plan.destination,
        round_nonce,
        sealed.ciphertext,
        lanes=lanes,
        tags=sealed.mac,
        tag_bytes=keys.tag_bytes,
        limit=field.prime - 1,
    )
    if field.prime <= 1 << 64:  # accepted values fill the low word only
        values = plaintext[1::2].tolist()
    else:
        values = [hi << 64 | lo for hi, lo in zip(plaintext[0::2], plaintext[1::2])]
    if 1 in rejected:
        return [None if bad else value for value, bad in zip(values, rejected)]
    return values


# -- batched stub share protection (pure ints) --------------------------------


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
