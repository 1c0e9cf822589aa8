"""AES-128 over packet lanes and keystream runs, in the native library.

A sharing round encrypts and MACs hundreds of independent share packets,
each under its own pairwise key, and deals from dozens of short-lived
DRBG forks.  Per-block Python AES costs ~10 µs; the C kernels of
``aes_lanes.c`` (in the native library of :mod:`repro.native`) run the
same T-table round function, over :mod:`repro.crypto.aes`'s own tables,
for a whole round in one call each:

* :func:`ctr_cbc_mac` — share-packet protection per lane (CTR + CBC-MAC),
  and :func:`delivered_lanes`, the receive test of a round's lanes;
* :func:`native_keystream_runs` — CTR keystream runs under raw keys;
* :func:`native_key_schedules` — the key schedules of many raw keys.

This module owns the kernels' calling conventions.  Buffers are plain
``array``/``bytes`` objects: a 128-bit block is two ``array("Q")``
words, high then low, and a key schedule is 44 ``array("I")`` words.
The per-packet :class:`~repro.core.payload.RealShareCodec`,
:meth:`~repro.crypto.aes.AES128.ctr_blocks` and
:func:`~repro.crypto.aes._expand_key_words` are their oracles and the
fallbacks where the library did not load: the keystream wrappers then
return ``None``, and callers ask :func:`lanes_available` before taking
the lane path at all.
"""

from __future__ import annotations

import ctypes
import struct
from array import array

from repro import native
from repro.crypto.aes import _RCON, _SBOX, _TE0, _TE1, _TE2, _TE3
from repro.crypto.mac import check_tag_length
from repro.errors import CryptoError

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# The kernels read the tables as buffers: Te0..Te3 back to back as
# native-order 32-bit words, then the S-box bytes.
_TABLES = (struct.pack("=1024I", *_TE0, *_TE1, *_TE2, *_TE3), _SBOX)
_RCON_BYTES = bytes(_RCON)

#: ``aes_ctr_cbc_mac`` in ``aes_lanes.c``: int64 status; the lane count,
#: the T-tables, the S-box, the two key arrays and their column count,
#: the plan's lane count, key columns, sources and destinations, the
#: lanes, the round nonce, the data and its width, the received tags,
#: the tag width, the plaintext limit, and the three outputs.
_LANES_SIGNATURE = "qqpppp" + "qqppp" + "pp" + "pq" + "pqp" + "ppp"
#: ``delivered_lanes`` in ``aes_lanes.c``: the delivered count; the lane
#: count, the rows, the chain bits, the views, their count and width,
#: and the output.
_DELIVERED_SIGNATURE = "qqpppqqp"
#: ``aes_ctr_runs`` in ``aes_lanes.c``: no result; the run count, the
#: T-tables, the S-box, the round constants, the raw keys, the
#: big-endian first counters, the block counts and the output.
_CTR_RUNS_SIGNATURE = "vqppppppp"
#: ``aes_expand_keys`` in ``aes_lanes.c``: no result; the key count, the
#: S-box, the round constants, the raw keys and the output words.
_EXPAND_KEYS_SIGNATURE = "vqpppp"


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def lanes_available() -> bool:
    """Whether the share-lane kernel loaded (the native library did)."""
    return native.kernel("aes_ctr_cbc_mac", _LANES_SIGNATURE) is not None


def native_key_schedules(keys: bytes) -> list[list[int]] | None:
    """FIPS-197 key expansion of N concatenated 16-byte keys, in C.

    List ``i`` is ``_expand_key_words(keys[16 * i : 16 * i + 16])`` of
    :mod:`repro.crypto.aes`, word for word: the ``_enc_words`` of
    ``AES128(key)``.  Returns ``None``, having computed nothing, where
    the native library did not load or ``keys`` is not whole keys.
    """
    kernel = native.kernel("aes_expand_keys", _EXPAND_KEYS_SIGNATURE)
    if kernel is None or len(keys) % 16:
        return None
    count = len(keys) // 16
    out = array("I", bytes(176 * count))
    kernel(count, _SBOX, _RCON_BYTES, keys, _address(out))
    words = out.tolist()
    return [words[44 * i : 44 * i + 44] for i in range(count)]


def native_keystream_runs(keys: bytes, counters, counts) -> list[bytes] | None:
    """CTR keystream runs under raw 16-byte keys, in C.

    Run ``i`` is ``AES128(keys[16 * i : 16 * i + 16]).ctr_blocks(
    counters[i], counts[i])``, bit for bit (the C kernel expands every
    key itself, so no cipher object or key schedule is built here).
    Returns ``None``, having computed nothing, where the native library
    did not load, a count is negative or the keys, counters and counts
    do not line up; the caller then keeps its own path.
    """
    kernel = native.kernel("aes_ctr_runs", _CTR_RUNS_SIGNATURE)
    if kernel is None:
        return None
    runs = len(counts)
    count_words = array("q", counts)
    if len(keys) != 16 * runs or len(counters) != runs or (runs and min(count_words) < 0):
        return None
    total = sum(count_words)
    out = ctypes.create_string_buffer(16 * total)
    kernel(
        runs,
        *_TABLES,
        _RCON_BYTES,
        keys,
        b"".join([(counter & _MASK128).to_bytes(16, "big") for counter in counters]),
        _address(count_words),
        out,
    )
    raw = out.raw
    streams = []
    offset = 0
    for count in counts:
        streams.append(raw[offset : offset + 16 * count])
        offset += 16 * count
    return streams


def ctr_cbc_mac(
    enc_keys: array,
    mac_keys: array,
    columns: array,
    sources: array,
    destinations: array,
    round_nonce: int,
    data: array,
    width: int = 2,
    lanes: array | None = None,
    tags: array | None = None,
    tag_bytes: int = 16,
    limit: int = _MASK128,
):
    """Share protection per lane: AES-CTR + length-prepended CBC-MAC, in C.

    A plan of P lanes is given by ``columns``, ``sources`` and
    ``destinations`` (``array("q")`` of P each): lane ``i`` is keyed by
    key column ``columns[i]`` of ``enc_keys`` and ``mac_keys``
    (``array("I")``, 44 schedule words per column) and its nonce is
    :meth:`~repro.core.payload.RealShareCodec._nonce` of ``round_nonce``,
    ``sources[i]`` and ``destinations[i]``.  ``data`` holds ``width``
    ``array("Q")`` words per plan lane (1: values below ``2**64``).
    The call runs plan lanes ``lanes`` (all P, in order, when ``None``).
    Per lane the CTR output is ``data ^ E_enc(nonce)`` and the MAC is the
    full 16-byte CBC-MAC (zero IV, 8-byte length prefix, PKCS#7 padding)
    of ``nonce_bytes + ct_bytes`` under the MAC key: exactly what
    :func:`repro.crypto.modes.ctr_transform` and
    :func:`repro.crypto.mac.cbc_mac` compute packet by packet.

    To seal (``tags`` None) ``data`` is the plaintext, the MAC covers the
    output, and the call returns ``(ciphertext, mac)``, two words per
    lane each.  To open, ``data`` and ``tags`` are a sealed round's
    ciphertext and MAC words (by plan lane); the MAC covers the input,
    and the call returns ``(plaintext, rejected)``: two words per lane
    and one byte per lane, 1 where the first ``tag_bytes`` bytes of the
    MAC differ from the received tag or the plaintext exceeds ``limit``.

    Raises :class:`CryptoError`, having computed nothing, where the
    library did not load, the buffers do not line up, or a lane or key
    column is out of range.
    """
    kernel = native.kernel("aes_ctr_cbc_mac", _LANES_SIGNATURE)
    if kernel is None:
        raise CryptoError("the share-lane kernel did not load")
    plan_lanes = len(columns)
    if tags is not None:
        check_tag_length(tag_bytes)
    buffers = (enc_keys, mac_keys, columns, sources, destinations, data)
    if not (
        tuple(buffer.typecode for buffer in buffers) == ("I", "I", "q", "q", "q", "Q")
        and len(enc_keys) == len(mac_keys)
        and len(enc_keys) % 44 == 0
        and len(sources) == len(destinations) == plan_lanes
        and width in (1, 2)
        and len(data) == width * plan_lanes
        and (lanes is None or lanes.typecode == "q")
        and (tags is None or (tags.typecode == "Q" and len(tags) == 2 * plan_lanes))
    ):
        raise CryptoError("lane buffers do not line up")
    n = plan_lanes if lanes is None else len(lanes)
    output = array("Q", bytes(16 * n))
    mac = array("Q", bytes(16 * n)) if tags is None else None
    rejected = None if tags is None else ctypes.create_string_buffer(n)
    limit = min(limit, _MASK128)
    status = kernel(
        n,
        *_TABLES,
        _address(enc_keys),
        _address(mac_keys),
        len(enc_keys) // 44,
        plan_lanes,
        _address(columns),
        _address(sources),
        _address(destinations),
        None if lanes is None else _address(lanes),
        round_nonce.to_bytes(8, "big"),
        _address(data),
        width,
        None if tags is None else _address(tags),
        tag_bytes,
        struct.pack("=2Q", limit >> 64, limit & _MASK64),
        _address(output),
        None if mac is None else _address(mac),
        rejected,
    )
    if status < 0:
        raise CryptoError("a lane or key column is out of range")
    return output, (mac if rejected is None else rejected.raw)


def delivered_lanes(rows: array, chains: array, views: bytes, view_bytes: int) -> array:
    """The lanes ``i`` whose bit ``chains[i]`` of view ``rows[i]`` is set.

    ``views`` is every view as ``view_bytes`` little-endian bytes, back
    to back; ``rows`` and ``chains`` are ``array("q")`` of one entry per
    lane.  Returns the lane indices in order, as an ``array("q")``.
    Raises :class:`CryptoError`, having computed nothing, where the
    library did not load or a lane reads outside ``views``.
    """
    kernel = native.kernel("delivered_lanes", _DELIVERED_SIGNATURE)
    if kernel is None:
        raise CryptoError("the share-lane kernel did not load")
    n = len(rows)
    if not (
        rows.typecode == chains.typecode == "q"
        and len(chains) == n
        and view_bytes > 0
        and len(views) % view_bytes == 0
    ):
        raise CryptoError("lane views do not line up")
    out = array("q", bytes(8 * n))
    count = kernel(
        n,
        _address(rows),
        _address(chains),
        views,
        len(views) // view_bytes,
        view_bytes,
        _address(out),
    )
    if count < 0:
        raise CryptoError("a lane reads outside the views")
    del out[count:]
    return out
