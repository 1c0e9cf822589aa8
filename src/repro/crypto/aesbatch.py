"""Vectorized AES-128 over packet batches and keystream runs.

A sharing round encrypts and MACs hundreds of independent share packets,
each under its own pairwise key.  Per-block Python AES costs ~10 µs; the
same T-table round function expressed as numpy gathers over a stacked
``(4, N)`` word state costs well under 1 µs per block once a round's
packets are batched, because the interpreter overhead is paid per *round
function*, not per block.

The kernel evaluates exactly the column equations of
:mod:`repro.crypto.aes` (same tables, same key schedule), so its output
is bit-identical to the scalar implementation — enforced by
``tests/crypto/test_aes_fastpath.py``.  numpy is an optional
acceleration: every caller must guard on :data:`HAVE_NUMPY` and fall
back to the scalar path (the library never *requires* numpy).

Layouts:

* **state** — ``(4, N)`` int64, row ``c`` holding big-endian word ``c``
  of every lane's block.  int64 rather than uint32 because the state
  feeds the table gathers directly: numpy indexes with int64 without a
  cast, and every value stays below ``2**32``;
* **keys** — ``(44, N)`` uint32, row ``k`` holding round-key word ``k``
  of every lane's cipher (``(44, 1)`` broadcasts one key to all lanes).

Share-packet protection (:func:`ctr_cbc_mac` keyed by ``columns``) and
CTR keystream runs under raw keys (:func:`native_keystream_runs`) also
exist in C (``aes_lanes.c``, in the native library of
:mod:`repro.native`), over these same tables; this module owns both
kernels' calling conventions, and the numpy code and
:meth:`~repro.crypto.aes.AES128.ctr_blocks` stay their oracles and
fallbacks.  The C kernels' table buffers are built without numpy, so
the keystream runs natively on a host that has no numpy.
"""

from __future__ import annotations

import ctypes
import struct
import sys
from array import array

from repro import native
from repro.crypto.aes import _RCON, _SBOX, _TE0, _TE1, _TE2, _TE3, AES128

try:  # pragma: no cover - import guard
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None

_MASK128 = (1 << 128) - 1

if HAVE_NUMPY:
    _T0 = _np.array(_TE0, dtype=_np.int64)
    _T1 = _np.array(_TE1, dtype=_np.int64)
    _T2 = _np.array(_TE2, dtype=_np.int64)
    _T3 = _np.array(_TE3, dtype=_np.int64)
    _S = _np.array(list(_SBOX), dtype=_np.int64)
    # Column c of a round reads bytes of state words c, c+1, c+2, c+3
    # (mod 4); these row permutations line those words up with c.
    _ROT1 = _np.array([1, 2, 3, 0])
    _ROT2 = _np.array([2, 3, 0, 1])
    _ROT3 = _np.array([3, 0, 1, 2])

# The native kernels read the same tables, built without numpy: Te0..Te3
# back to back as native-order 32-bit words, then the S-box bytes.
_TABLES = (struct.pack("=1024I", *_TE0, *_TE1, *_TE2, *_TE3), _SBOX)
_RCON_BYTES = bytes(_RCON)

#: ``aes_ctr_cbc_mac`` in ``aes_lanes.c``: int64 status; the lane count,
#: the T-tables, the S-box, the two key matrices and their width, the
#: key columns, the nonce and data states, the direction, and the two
#: output states.
_LANES_SIGNATURE = "qqpppp" + "q" + "ppp" + "q" + "pp"
#: ``aes_ctr_runs`` in ``aes_lanes.c``: no result; the run count, the
#: T-tables, the S-box, the round constants, the raw keys, the
#: big-endian first counters, the block counts and the output.
_CTR_RUNS_SIGNATURE = "vqppppppp"


def key_schedules(keys: bytes) -> "object":
    """FIPS-197 key expansion of N concatenated 16-byte keys, vectorized.

    Returns the ``(44, N)`` uint32 key layout, column ``i`` equal to the
    ``_enc_words`` of ``AES128(keys[16 * i : 16 * i + 16])``.  One pass of
    the round loop of :func:`repro.crypto.aes._expand_key_words` over all
    keys at once: a fleet of short-lived keys (dealer forks) pays no
    per-key cipher object.
    """
    words = _np.frombuffer(keys, dtype=">u4").reshape(-1, 4).T.astype(_np.int64)
    out = _np.empty((44, words.shape[1]), dtype=_np.uint32)
    out[0:4] = words
    w0, w1, w2, w3 = words
    for k, rcon in enumerate(_RCON, start=1):
        temp = ((w3 << 8) | (w3 >> 24)) & 0xFFFFFFFF  # RotWord
        temp = (  # SubWord
            (_S[temp >> 24] << 24)
            | (_S[(temp >> 16) & 255] << 16)
            | (_S[(temp >> 8) & 255] << 8)
            | _S[temp & 255]
        ) ^ (rcon << 24)
        w0 = w0 ^ temp
        w1 = w1 ^ w0
        w2 = w2 ^ w1
        w3 = w3 ^ w2
        out[4 * k] = w0
        out[4 * k + 1] = w1
        out[4 * k + 2] = w2
        out[4 * k + 3] = w3
    return out


def cipher_schedules(ciphers) -> "object":
    """The ``(44, N)`` key layout of table-mode ``ciphers``, one column each.

    Each *distinct* cipher's schedule is converted once and the lanes
    gather from that stack (a single cipher is a read-only broadcast), so
    a batch that repeats one key thousands of times pays for one
    schedule.
    """
    distinct = dict.fromkeys(ciphers)
    stacked = _np.array([cipher._enc_words for cipher in distinct], dtype=_np.uint32).T
    if len(distinct) == 1:
        return _np.broadcast_to(stacked, (44, len(ciphers)))
    slots = {cipher: slot for slot, cipher in enumerate(distinct)}
    return stacked.take([slots[cipher] for cipher in ciphers], axis=1)


def words_from_ints(values) -> "object":
    """128-bit block ints as a ``(4, N)`` big-endian word state."""
    try:  # blocks below 2**64 (GF(2**61 - 1) shares) fill words 2 and 3
        low = array("Q", values)
    except OverflowError:
        raw = b"".join([value.to_bytes(16, "big") for value in values])
        return (
            _np.frombuffer(raw, dtype=">u4")
            .reshape(-1, 4)
            .T.astype(_np.int64, order="C")
        )
    if sys.byteorder == "little":
        low.byteswap()
    state = _np.zeros((4, len(low)), dtype=_np.int64)
    state[2:] = _np.frombuffer(low, dtype=">u4").reshape(-1, 2).T
    return state


def ints_from_words(state) -> list[int]:
    """Inverse of :func:`words_from_ints`."""
    words = state.view(_np.uint64)
    if not words[0:2].any():
        return ((words[2] << _np.uint64(32)) | words[3]).tolist()
    high = ((words[0] << _np.uint64(32)) | words[1]).tolist()
    low = ((words[2] << _np.uint64(32)) | words[3]).tolist()
    return [(h << 64) | lo for h, lo in zip(high, low)]


def _packed(state) -> bytes:
    """A ``(4, N)`` state as N concatenated 16-byte big-endian blocks."""
    return state.T.astype(">u4").tobytes()


def encrypt_state(rk, state):
    """One AES-128 encryption per lane of a ``(4, N)`` word state.

    ``rk`` is a ``(44, N)`` key layout (from :func:`key_schedules`,
    :func:`cipher_schedules` or a pair key table; ``(44, 1)`` runs every
    lane under one key).  Each round is the four column equations of
    :mod:`repro.crypto.aes` evaluated for all columns and lanes at once.
    Returns the ``(4, N)`` output state.
    """
    s = state ^ rk[0:4]
    for k in range(4, 40, 4):
        s = (
            _T0[s >> 24]
            ^ _T1[(s[_ROT1] >> 16) & 255]
            ^ _T2[(s[_ROT2] >> 8) & 255]
            ^ _T3[s[_ROT3] & 255]
            ^ rk[k : k + 4]
        )
    return (
        (_S[s >> 24] << 24)
        | (_S[(s[_ROT1] >> 16) & 255] << 16)
        | (_S[(s[_ROT2] >> 8) & 255] << 8)
        | _S[s[_ROT3] & 255]
    ) ^ rk[40:44]


def encrypt_blocks(ciphers, blocks: list[int]) -> list[int]:
    """One single-block encryption per (cipher, block) pair, batched.

    Bit-identical to ``[c.encrypt_int(b) for c, b in zip(ciphers, blocks)]``.
    """
    if not blocks:
        return []
    return ints_from_words(
        encrypt_state(cipher_schedules(ciphers), words_from_ints(blocks))
    )


def ctr_keystream(cipher: AES128, counter: int, count: int) -> bytes:
    """``count`` CTR keystream blocks of ``cipher``, lane-vectorized.

    Bit-identical to ``cipher.ctr_blocks(counter, count)`` — the same
    big-endian counter blocks through the same T-table round function —
    with the per-block interpreter cost amortised across all ``count``
    lanes.  This is the bulk-refill kernel behind the DRBG's fast path.
    """
    if count <= 0:
        return b""
    rk = _np.array(cipher._enc_words, dtype=_np.uint32).reshape(44, 1)
    return keystream_runs(rk, [counter], [count])[0]


def ctr_keystream_many(ciphers, counters, counts) -> list[bytes]:
    """Per-cipher CTR keystream runs: :func:`keystream_runs` over ``ciphers``.

    Each stream is bit-identical to ``ciphers[i].ctr_blocks(counters[i],
    counts[i])``.
    """
    if sum(counts) == 0:
        return [b"" for _ in counts]
    return keystream_runs(cipher_schedules(ciphers), counters, counts)


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
        count_words.buffer_info()[0],
        out,
    )
    raw = out.raw
    streams = []
    offset = 0
    for count in counts:
        streams.append(raw[offset : offset + 16 * count])
        offset += 16 * count
    return streams


def keystream_runs(rk, counters, counts) -> list[bytes]:
    """CTR keystream runs under per-run keys, all lanes in one kernel call.

    Key column ``i`` of ``rk`` (``(44, K)``, see :func:`key_schedules`)
    contributes ``counts[i]`` consecutive blocks starting at
    ``counters[i]``; the return value is one keystream byte string per
    run.  Batching *across independent keys* is what makes per-dealer
    DRBG forks affordable: a round's worth of short keystream runs
    becomes a single wide batch.
    """
    total = sum(counts)
    if total == 0:
        return [b"" for _ in counts]
    runs = _np.array(counts, dtype=_np.int64)
    # Lane j of run i encrypts counters[i] + j: the low word counts up
    # lane-wise and each overflow ripples one word left (uint64
    # intermediates keep the carries exact for any run < 2**32 blocks).
    base = _np.repeat(
        words_from_ints([counter & _MASK128 for counter in counters]).view(_np.uint64),
        runs,
        axis=1,
    )
    starts = _np.repeat(_np.cumsum(runs) - runs, runs)
    lanes = (_np.arange(total, dtype=_np.int64) - starts).astype(_np.uint64)
    shift = _np.uint64(32)
    mask32 = _np.uint64(0xFFFFFFFF)
    state = _np.empty((4, total), dtype=_np.uint64)
    state[3] = base[3] + lanes
    state[2] = base[2] + (state[3] >> shift)
    state[1] = base[1] + (state[2] >> shift)
    state[0] = base[0] + (state[1] >> shift)
    state &= mask32
    raw = _packed(encrypt_state(_np.repeat(rk, runs, axis=1), state.view(_np.int64)))
    streams = []
    offset = 0
    for count in counts:
        streams.append(raw[offset : offset + 16 * count])
        offset += 16 * count
    return streams


def ctr_cbc_mac(enc_rk, mac_rk, nonce, data, mac_over_input: bool = False, columns=None):
    """Share protection per lane: AES-CTR + length-prepended CBC-MAC.

    All arguments are lane-major word layouts: ``(44, N)`` key columns
    and ``(4, N)`` block states.  For each lane the CTR output is
    ``data ^ E_enc(nonce)`` and the MAC is the full 16-byte CBC-MAC (zero
    IV, 8-byte length prefix, PKCS#7 padding) of ``nonce_bytes +
    ct_bytes`` under the MAC key — exactly what
    :func:`repro.crypto.modes.ctr_transform` + :func:`repro.crypto.mac.cbc_mac`
    compute packet-by-packet, before truncation.

    On the sender ``data`` is the plaintext, the CTR output is the
    ciphertext and the MAC covers that output.  On the receiver ``data``
    is the received ciphertext (CTR is an involution, so the output is
    the plaintext) and the MAC must cover the *input* — select that with
    ``mac_over_input=True``.

    With ``columns`` (N key column indices), ``enc_rk`` and ``mac_rk``
    are ``(44, K)`` key matrices and lane ``i`` is keyed by their column
    ``columns[i]``.  That form runs in the native kernel where it loaded,
    reading the columns in place; otherwise the columns are gathered and
    the numpy code below runs.

    Returns (CTR output state, MAC state).
    """
    if columns is not None:
        sealed = _native_ctr_cbc_mac(enc_rk, mac_rk, columns, nonce, data, mac_over_input)
        if sealed is not None:
            return sealed
        enc_rk = enc_rk[:, columns]
        mac_rk = mac_rk[:, columns]
    outputs = data ^ encrypt_state(enc_rk, nonce)
    covered = data if mac_over_input else outputs

    # CBC-MAC over the 40-byte prefixed message, padded to 48 bytes:
    #   block 1 = len(32).to_bytes(8) || nonce[0:8]
    #   block 2 = nonce[8:16]         || ct[0:8]
    #   block 3 = ct[8:16]            || 0x08 * 8   (PKCS#7)
    block = _np.empty((4, nonce.shape[1]), dtype=_np.int64)
    block[0] = 0
    block[1] = 32
    block[2:] = nonce[0:2]
    mac = encrypt_state(mac_rk, block)
    block[0:2] = nonce[2:4]
    block[2:] = covered[0:2]
    mac = encrypt_state(mac_rk, mac ^ block)
    block[0:2] = covered[2:4]
    block[2:] = 0x08080808
    return outputs, encrypt_state(mac_rk, mac ^ block)


def _native_ctr_cbc_mac(enc, mac, columns, nonce, data, mac_over_input):
    """:func:`ctr_cbc_mac` by key column in C, or ``None``, having
    computed nothing, where the kernel did not load or the arguments are
    not uint32 ``(44, K)`` key matrices, int64 ``(4, N)`` states and
    ``N`` int64 columns in range (the numpy code then decides what they
    mean)."""
    kernel = native.kernel("aes_ctr_cbc_mac", _LANES_SIGNATURE)
    if kernel is None:
        return None
    columns = _np.ascontiguousarray(columns)
    lanes = len(columns)
    if not (
        columns.ndim == 1
        and columns.dtype == _np.int64
        and enc.ndim == 2
        and enc.shape[0] == 44
        and mac.shape == enc.shape
        and enc.dtype == mac.dtype == _np.uint32
        and nonce.shape == data.shape == (4, lanes)
        and nonce.dtype == data.dtype == _np.int64
    ):
        return None
    enc, mac, nonce, data = map(_np.ascontiguousarray, (enc, mac, nonce, data))
    outputs = _np.empty((4, lanes), dtype=_np.int64)
    tags = _np.empty((4, lanes), dtype=_np.int64)
    status = kernel(
        lanes,
        *_TABLES,
        enc.ctypes.data,
        mac.ctypes.data,
        enc.shape[1],
        columns.ctypes.data,
        nonce.ctypes.data,
        data.ctypes.data,
        bool(mac_over_input),
        outputs.ctypes.data,
        tags.ctypes.data,
    )
    return None if status else (outputs, tags)
