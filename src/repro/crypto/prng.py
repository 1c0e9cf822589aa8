"""Deterministic AES-CTR DRBG.

Everywhere the *protocol* needs randomness — Shamir polynomial
coefficients, per-packet nonces — we draw from this DRBG rather than the
simulation RNG.  Two reasons:

* reproducibility: a whole experiment is replayable from ``(seed, node)``;
* separation: channel randomness (fading, losses) and cryptographic
  randomness never share a stream, so changing the PHY model does not
  change which polynomials a node deals.

The generator exposes the subset of the ``random.Random`` interface the
library uses (``randrange``, ``getrandbits``, ``random_bytes``) so it can
be passed anywhere a stdlib RNG is accepted.

Performance: the keystream is produced in multi-block batches (one call
per refill instead of one ``encrypt_block`` call per 16 bytes) and
consumed through a moving offset instead of re-slicing the buffer.  A
refill runs in the native library's CTR kernel
(:func:`repro.crypto.aesbatch.native_keystream_runs`), straight from the
raw key; where that did not load, in
:meth:`repro.crypto.aes.AES128.ctr_blocks`.  Batching
and routing only change *when* and *where* keystream blocks are computed,
never their values, so the output stream is bit-identical to the seed
implementation; the reference path (:mod:`repro.fastpath` disabled)
refills one block at a time exactly as the original code did.
"""

from __future__ import annotations

import hashlib
import struct

from repro import fastpath
from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.errors import CryptoError

#: Process-wide cipher pool (fast path without the native kernel, which
#: expands keys itself): protocol randomness is seeded deterministically,
#: so identical campaigns re-derive identical DRBG keys — pooling the
#: expanded schedules makes repeat campaigns skip the per-key setup
#: entirely.  Fork keys never enter it.  AES128 objects are immutable
#: after construction, so sharing is safe.
_CIPHER_POOL: dict[bytes, AES128] = {}
_CIPHER_POOL_MAX = 8192

#: Maximum keystream blocks generated per refill on the fast path.
#: Prefetching ahead of demand is free: CTR output depends only on the
#: counter, so the stream a consumer sees is identical regardless of batch
#: size.  Refills grow geometrically from one block up to this cap, so a
#: short-lived DRBG (e.g. a per-dealer fork that draws a handful of
#: coefficients) never wastes a big batch while long-lived streams
#: amortise the per-call overhead fully.
_FAST_REFILL_BLOCKS_MAX = 32


class AesCtrDrbg:
    """Deterministic random bit generator running AES-128 in counter mode.

    The 16-byte key is derived from an arbitrary seed via SHA-256 (first
    16 bytes); the counter starts at zero.  Output blocks are buffered so
    small requests don't waste cipher calls.

    >>> drbg = AesCtrDrbg.from_seed(b"experiment-42")
    >>> value = drbg.randrange(1000)
    >>> 0 <= value < 1000
    True
    """

    __slots__ = (
        "_cipher",
        "_key",
        "_counter",
        "_buffer",
        "_offset",
        "_refill_blocks",
        "_batching",
        "_pooled",
    )

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise CryptoError(f"DRBG key must be 16 bytes, got {len(key)}")
        self._key = key
        #: Built on the first refill this stream makes on its own (see
        #: :meth:`_refill_cipher`); batched prefills never need it.
        self._cipher: AES128 | None = None
        self._batching = fastpath.enabled()
        self._pooled = self._batching
        self._counter = 0
        self._buffer = b""
        self._offset = 0
        self._refill_blocks = 1

    @classmethod
    def from_seed(cls, seed: bytes | str | int) -> "AesCtrDrbg":
        """Build a DRBG from any hashable seed material."""
        if isinstance(seed, int):
            seed = seed.to_bytes((max(seed.bit_length(), 1) + 7) // 8, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        digest = hashlib.sha256(seed).digest()
        return cls(digest[:16])

    @property
    def key_bytes(self) -> bytes:
        """The 16-byte AES key this stream runs under: its entire output
        is a pure function of this key."""
        return self._key

    def _refill_cipher(self) -> AES128:
        """This stream's cipher, expanded on first use.

        Fast-path streams share schedules through :data:`_CIPHER_POOL`,
        except forks: their keys are fresh per round, so pooling them
        would only evict the keys that do repeat.
        """
        cipher = self._cipher
        if cipher is None:
            if self._pooled:
                cipher = _CIPHER_POOL.get(self._key)
                if cipher is None:
                    cipher = AES128(self._key, use_tables=True)
                    if len(_CIPHER_POOL) >= _CIPHER_POOL_MAX:
                        _CIPHER_POOL.clear()
                    _CIPHER_POOL[self._key] = cipher
            else:
                cipher = AES128(self._key, use_tables=self._batching)
            self._cipher = cipher
        return cipher

    def _generate_blocks(self, count: int) -> bytes:
        """``count`` keystream blocks from the current counter position.

        On the fast path every refill runs in the native CTR kernel,
        which expands the raw key itself; where that did not load, in
        the scalar ``ctr_blocks``.  The bytes are bit-identical either
        way, so the routing decision never shows in the output stream.
        """
        streams = None
        if self._batching:
            from repro.crypto import aesbatch

            streams = aesbatch.native_keystream_runs(self._key, (self._counter,), (count,))
        if streams is None:
            streams = [self._refill_cipher().ctr_blocks(self._counter, count)]
        self._counter += count
        return streams[0]

    def prefill(self, length: int) -> None:
        """Ensure at least ``length`` bytes of keystream are buffered.

        Purely a scheduling hint: the stream a consumer sees is identical
        with or without the call, but one big refill is far cheaper than
        the geometric ramp of small refills it replaces.
        """
        available = len(self._buffer) - self._offset
        if available >= length:
            return
        blocks = (length - available + BLOCK_SIZE - 1) // BLOCK_SIZE
        fresh = self._generate_blocks(blocks)
        self._buffer = self._buffer[self._offset :] + fresh
        self._offset = 0

    def random_bytes(self, length: int) -> bytes:
        """Next ``length`` bytes of keystream."""
        if length < 0:
            raise CryptoError(f"length must be >= 0, got {length}")
        buffer = self._buffer
        offset = self._offset
        available = len(buffer) - offset
        if available < length:
            needed_blocks = (length - available + BLOCK_SIZE - 1) // BLOCK_SIZE
            batch = needed_blocks
            if self._batching:
                batch = max(needed_blocks, self._refill_blocks)
                self._refill_blocks = min(
                    self._refill_blocks * 2, _FAST_REFILL_BLOCKS_MAX
                )
            fresh = self._generate_blocks(batch)
            buffer = buffer[offset:] + fresh
            offset = 0
            self._buffer = buffer
        output = buffer[offset : offset + length]
        self._offset = offset + length
        return output

    def getrandbits(self, bits: int) -> int:
        """Uniform integer with ``bits`` random bits (like ``random.getrandbits``)."""
        if bits < 0:
            raise CryptoError(f"bits must be >= 0, got {bits}")
        if bits == 0:
            return 0
        num_bytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(num_bytes), "big")
        return value >> (8 * num_bytes - bits)

    def randrange(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling.

        Each candidate is :meth:`getrandbits` of ``bound.bit_length()``
        bits.  When its bytes are already buffered they are read in
        place — the same bytes, so the same stream — skipping the
        refill bookkeeping that dominates a coefficient draw.
        """
        if bound <= 0:
            raise CryptoError(f"bound must be >= 1, got {bound}")
        bits = bound.bit_length()
        num_bytes = (bits + 7) // 8
        excess = 8 * num_bytes - bits
        while True:
            offset = self._offset
            end = offset + num_bytes
            if end <= len(self._buffer):
                self._offset = end
                candidate = int.from_bytes(self._buffer[offset:end], "big") >> excess
            else:
                candidate = self.getrandbits(bits)
            if candidate < bound:
                return candidate

    def randrange_many(self, bound: int, count: int) -> list[int]:
        """``count`` draws of :meth:`randrange`, in one buffered read.

        Stream-identical to ``[self.randrange(bound) for _ in
        range(count)]``, stream position included.  When ``bound`` takes
        8-byte candidates (57 to 64 bits, as over ``2**61 - 1``) and all
        ``count`` of them are already buffered, they are unpacked with
        one ``struct`` call; if every one is below ``bound`` the loop
        would take them all, so they are taken at once.  Otherwise (a
        rejection, too little buffered, other widths) the loop runs from
        the same offset.
        """
        if bound <= 0:
            raise CryptoError(f"bound must be >= 1, got {bound}")
        excess = 64 - bound.bit_length()
        offset = self._offset
        end = offset + 8 * count
        if 0 <= excess < 8 and 0 < count and end <= len(self._buffer):
            values = struct.unpack_from(f">{count}Q", self._buffer, offset)
            if excess:
                values = [value >> excess for value in values]
            if max(values) < bound:
                self._offset = end
                return list(values)
        randrange = self.randrange
        return [randrange(bound) for _ in range(count)]

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (inclusive, like stdlib)."""
        if high < low:
            raise CryptoError(f"empty range [{low}, {high}]")
        return low + self.randrange(high - low + 1)

    def fork(self, label: bytes | str) -> "AesCtrDrbg":
        """Derive an independent child DRBG bound to ``label``.

        Used to give every node / every round its own stream without the
        streams ever overlapping.
        """
        if isinstance(label, str):
            label = label.encode("utf-8")
        material = self.random_bytes(16) + label
        child = AesCtrDrbg.from_seed(material)
        child._pooled = False
        return child

    def fork_many(self, labels) -> "list[AesCtrDrbg]":
        """Children of :meth:`fork` for every label, in order.

        Stream-identical to ``[self.fork(label) for label in labels]`` —
        the parent material draws happen in the same order and the child
        keys come out bit-for-bit the same — but the parent draws are one
        buffered read, which keeps a round's worth of dealer forks off
        the scalar refill path, and each child is built straight from
        its key, without ``from_seed`` and ``__init__``.
        """
        labels = [label.encode("utf-8") if isinstance(label, str) else label for label in labels]
        if not labels:
            return []
        self.prefill(16 * len(labels))
        material = self.random_bytes(16 * len(labels))
        # Reads are byte-granular, so one read of 16 * n bytes is the n
        # reads of 16 that fork makes; each child is what from_seed
        # builds from its key (a bytes seed hashes as it is).
        sha256 = hashlib.sha256
        batching = fastpath.enabled()
        children = []
        for offset, label in zip(range(0, len(material), 16), labels):
            child = AesCtrDrbg.__new__(AesCtrDrbg)
            child._key = sha256(material[offset : offset + 16] + label).digest()[:16]
            child._cipher = None
            child._batching = batching
            child._pooled = False
            child._counter = 0
            child._buffer = b""
            child._offset = 0
            child._refill_blocks = 1
            children.append(child)
        return children

    @staticmethod
    def prefill_many(drbgs, length: int) -> None:
        """Buffer ``length`` keystream bytes into every DRBG, batched.

        One native CTR kernel call covers all the streams' blocks, each
        under its own raw key, so a fleet of short-lived forks pays the
        call overhead once instead of per fork and builds no cipher
        object or key schedule.  Where that kernel did not load, each
        stream prefills on its own.  Either way every stream's future
        output is bit-identical to the unprefilled one.
        """
        if length <= 0:
            return
        pending = [drbg for drbg in drbgs if len(drbg._buffer) - drbg._offset < length]
        streams = None
        if pending and all(drbg._batching for drbg in pending):
            from repro.crypto import aesbatch

            counts = [
                (length - len(drbg._buffer) + drbg._offset + BLOCK_SIZE - 1) // BLOCK_SIZE
                for drbg in pending
            ]
            keys = b"".join([drbg._key for drbg in pending])
            counters = [drbg._counter for drbg in pending]
            streams = aesbatch.native_keystream_runs(keys, counters, counts)
        if streams is None:
            for drbg in pending:
                drbg.prefill(length)
            return
        for drbg, count, fresh in zip(pending, counts, streams):
            drbg._counter += count
            drbg._buffer = drbg._buffer[drbg._offset :] + fresh
            drbg._offset = 0
