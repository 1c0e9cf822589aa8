"""Vectorized AES-128 over packet batches (numpy backend).

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
"""

from __future__ import annotations

import threading

from repro.crypto.aes import _SBOX, _TE0, _TE1, _TE2, _TE3, AES128

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

#: The key registry: every batched cipher owns one column of a single
#: ``(44, capacity)`` uint32 matrix, so a batch's keys are one fancy-index
#: gather instead of a per-call stack of cached rows.  The dict is keyed
#: by the cipher object itself (identity hash), so it holds a reference
#: and an id() can never be recycled while the cipher owns a column.  It
#: is cleared wholesale — before any column of the batch is read — when a
#: batch's unseen ciphers would push it past :data:`_KEY_ROWS_MAX`.
_KEY_SLOTS: "dict[AES128, int]" = {}
_KEY_MATRIX = None
_KEY_ROWS_MAX = 8192
_KEY_LOCK = threading.Lock()


def clear_key_rows() -> None:
    """Drop every registered cipher and the key matrix."""
    global _KEY_MATRIX
    with _KEY_LOCK:
        _KEY_SLOTS.clear()
        _KEY_MATRIX = None


def _register(ciphers) -> list[int]:
    """Give every unseen cipher of the batch a column; return all slots.

    Called with :data:`_KEY_LOCK` held.  The matrix grows by doubling,
    so commissioning a new key only writes its own column.  A batch with
    more distinct ciphers than the cap still gets every column (the
    registry is bounded by the larger of the cap and one batch).
    """
    global _KEY_MATRIX
    fresh = [c for c in dict.fromkeys(ciphers) if c not in _KEY_SLOTS]
    if len(_KEY_SLOTS) + len(fresh) > _KEY_ROWS_MAX:
        _KEY_SLOTS.clear()
        fresh = list(dict.fromkeys(ciphers))
    start = len(_KEY_SLOTS)
    end = start + len(fresh)
    capacity = 0 if _KEY_MATRIX is None else _KEY_MATRIX.shape[1]
    if end > capacity:
        grown = _np.empty((44, max(end, 2 * capacity, 64)), dtype=_np.uint32)
        if start:
            grown[:, :start] = _KEY_MATRIX[:, :start]
        _KEY_MATRIX = grown
    _KEY_MATRIX[:, start:end] = _np.array(
        [cipher._enc_words for cipher in fresh], dtype=_np.uint32
    ).T
    _KEY_SLOTS.update(zip(fresh, range(start, end)))
    return [_KEY_SLOTS[cipher] for cipher in ciphers]


def key_rows(ciphers) -> "object":
    """The ``(44, N)`` round-key words of ``ciphers``, one column per lane.

    Every cipher must be a table-mode :class:`AES128` (the fast path
    guarantees this).  Repeated rounds over the same pairwise keys pay
    one gather from the key matrix; the result is a copy, so it stays
    valid whatever later batches do to the registry.
    """
    with _KEY_LOCK:
        slots = list(map(_KEY_SLOTS.get, ciphers))
        if None in slots:
            slots = _register(ciphers)
        return _KEY_MATRIX[:, slots]


def words_from_ints(values) -> "object":
    """128-bit block ints as a ``(4, N)`` big-endian word state."""
    raw = b"".join([value.to_bytes(16, "big") for value in values])
    return (
        _np.frombuffer(raw, dtype=">u4")
        .reshape(-1, 4)
        .T.astype(_np.int64, order="C")
    )


def ints_from_words(state) -> list[int]:
    """Inverse of :func:`words_from_ints`."""
    words = state.view(_np.uint64)
    high = ((words[0] << _np.uint64(32)) | words[1]).tolist()
    low = ((words[2] << _np.uint64(32)) | words[3]).tolist()
    return [(h << 64) | lo for h, lo in zip(high, low)]


def _packed(state) -> bytes:
    """A ``(4, N)`` state as N concatenated 16-byte big-endian blocks."""
    return state.T.astype(">u4").tobytes()


def encrypt_state(rk, state):
    """One AES-128 encryption per lane of a ``(4, N)`` word state.

    ``rk`` is the ``(44, N)`` key layout from :func:`key_rows` (or
    ``(44, 1)`` to run every lane under one key).  Each round is the
    four column equations of :mod:`repro.crypto.aes` evaluated for all
    columns and lanes at once.  Returns the ``(4, N)`` output state.
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
    return ints_from_words(encrypt_state(key_rows(ciphers), words_from_ints(blocks)))


def ctr_keystream(cipher: AES128, counter: int, count: int) -> bytes:
    """``count`` CTR keystream blocks of ``cipher``, lane-vectorized.

    Bit-identical to ``cipher.ctr_blocks(counter, count)`` — the same
    big-endian counter blocks through the same T-table round function —
    with the per-block interpreter cost amortised across all ``count``
    lanes.  This is the bulk-refill kernel behind the DRBG's fast path.
    """
    if count <= 0:
        return b""
    return ctr_keystream_many([cipher], [counter], [count])[0]


def ctr_keystream_many(ciphers, counters, counts) -> list[bytes]:
    """Per-cipher CTR keystream runs, all lanes in one kernel call.

    ``ciphers[i]`` contributes ``counts[i]`` consecutive blocks starting
    at ``counters[i]``; the return value is one keystream byte string per
    cipher, each bit-identical to ``ciphers[i].ctr_blocks(counters[i],
    counts[i])``.  Batching *across independent keys* is what makes
    per-dealer DRBG forks affordable: a round's worth of short keystream
    runs becomes a single wide batch.

    DRBG ciphers are short-lived, so their keys are laid out directly
    rather than through the key registry.
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
    rk = _np.repeat(
        _np.array([cipher._enc_words for cipher in ciphers], dtype=_np.uint32).T,
        runs,
        axis=1,
    )
    raw = _packed(encrypt_state(rk, state.view(_np.int64)))
    streams = []
    offset = 0
    for count in counts:
        streams.append(raw[offset : offset + 16 * count])
        offset += 16 * count
    return streams


def ctr_cbc_mac_batch(
    enc_ciphers,
    mac_ciphers,
    nonces: list[int],
    data: list[int],
    tag_bytes: int,
    mac_over_input: bool = False,
) -> tuple[list[int], list[bytes]]:
    """Batched share protection: per-lane AES-CTR + length-prepended CBC-MAC.

    For each lane ``i`` the CTR output is ``data ^ E_enc(nonce)`` and the
    tag is the truncated CBC-MAC (zero IV, 8-byte length prefix, PKCS#7
    padding) of ``nonce_bytes + ct_bytes`` under the MAC key — exactly
    what :func:`repro.crypto.modes.ctr_transform` +
    :func:`repro.crypto.mac.cbc_mac` compute packet-by-packet.

    On the sender ``data`` is the plaintext, the CTR output is the
    ciphertext and the MAC covers that output.  On the receiver ``data``
    is the received ciphertext (CTR is an involution, so the output is
    the plaintext) and the MAC must cover the *input* — select that with
    ``mac_over_input=True``.

    Returns (CTR output ints, tag bytes).
    """
    n = len(nonces)
    if n == 0:
        return [], []
    enc_rk = key_rows(enc_ciphers)
    mac_rk = key_rows(mac_ciphers)
    nonce = words_from_ints(nonces)

    # CTR: output = data ^ E_enc(nonce).
    inputs = words_from_ints(data)
    outputs = inputs ^ encrypt_state(enc_rk, nonce)
    covered = inputs if mac_over_input else outputs

    # CBC-MAC over the 40-byte prefixed message, padded to 48 bytes:
    #   block 1 = len(32).to_bytes(8) || nonce[0:8]
    #   block 2 = nonce[8:16]         || ct[0:8]
    #   block 3 = ct[8:16]            || 0x08 * 8   (PKCS#7)
    block = _np.empty((4, n), dtype=_np.int64)
    block[0] = 0
    block[1] = 32
    block[2:] = nonce[0:2]
    mac = encrypt_state(mac_rk, block)
    block[0:2] = nonce[2:4]
    block[2:] = covered[0:2]
    mac = encrypt_state(mac_rk, mac ^ block)
    block[0:2] = covered[2:4]
    block[2:] = 0x08080808
    mac = encrypt_state(mac_rk, mac ^ block)

    tags = _packed(mac)
    return ints_from_words(outputs), [
        tags[offset : offset + tag_bytes] for offset in range(0, 16 * n, 16)
    ]
