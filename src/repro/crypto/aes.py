"""AES-128 block cipher, pure Python, from scratch (FIPS-197).

The paper's sharing phase encrypts each MiniCast sub-slot packet with
AES-128 under a pairwise key.  nRF52840 does this in hardware; we implement
the same algorithm in software.  Only the forward cipher exists: CTR and
CBC-MAC, the packet cipher and its MAC, never decrypt a block.  Two
implementations live side by side:

* the **reference path** — clarity over speed, table-driven only for the
  S-box, with MixColumns done via ``xtime`` exactly as the standard
  describes.  This is the auditable oracle the test suite validates
  against the FIPS-197 and SP 800-38A known-answer vectors.
* the **fast path** (default, see :mod:`repro.fastpath`) — the classic
  T-table formulation: SubBytes, ShiftRows and MixColumns for one state
  column collapse into four 256-entry word-table lookups.  The tables are
  derived from the reference S-box once at import time (the import lock
  makes that construction thread-safe) and the implementation is
  self-checked against a FIPS-197 vector before the module finishes
  importing, so a table-construction bug can never produce silently wrong
  ciphertext.

Security note: this is a *simulation fidelity* component, not hardened
code — no constant-time guarantees are attempted (nor needed here).
"""

from __future__ import annotations

from repro import fastpath
from repro.errors import CryptoError

#: AES block size in bytes.
BLOCK_SIZE = 16
#: AES-128 key size in bytes.
KEY_SIZE = 16

_ROUNDS = 10


def _build_sbox() -> bytes:
    """Construct the AES S-box from first principles.

    Each entry is the multiplicative inverse in GF(2^8) followed by the
    affine transformation from FIPS-197 §5.1.1.  Building the table instead
    of pasting 256 magic numbers keeps the implementation auditable.
    """
    # Multiplicative inverses in GF(2^8) with the AES polynomial 0x11B,
    # computed via log/antilog tables over the generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by generator 3 = x * 2 ^ x
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inverse = 0 if value == 0 else exp[255 - log[value]]
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        result = 0
        for bit in range(8):
            b = (
                (inverse >> bit)
                ^ (inverse >> ((bit + 4) % 8))
                ^ (inverse >> ((bit + 5) % 8))
                ^ (inverse >> ((bit + 6) % 8))
                ^ (inverse >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            result |= b << bit
        sbox[value] = result
    return bytes(sbox)


_SBOX = _build_sbox()

# Round constants for key expansion (rcon[i] = x^(i-1) in GF(2^8)).
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(value: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo the AES polynomial."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _mul(a: int, b: int) -> int:
    """GF(2^8) multiplication (schoolbook, used to build the T-tables)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a = _xtime(a)
        b >>= 1
    return product


# -- T-tables (fast path) ------------------------------------------------------
#
# One encryption table word per S-box output s = S[x]:
#
#   Te0[x] = [2s, s, s, 3s]   (big-endian column word)
#
# is the MixColumns contribution of a state byte sitting in row 0 of a
# column; rows 1..3 are byte rotations of the same word.
#
# Built once at import (the interpreter's import lock serialises this, so
# no explicit lock is needed even under threaded importers).


def _ror8(word: int) -> int:
    """Rotate a 32-bit word right by one byte."""
    return ((word >> 8) | (word << 24)) & 0xFFFFFFFF


def _build_encrypt_tables() -> tuple[list[int], ...]:
    te0 = []
    for x in range(256):
        s = _SBOX[x]
        te0.append((_mul(s, 2) << 24) | (s << 16) | (s << 8) | _mul(s, 3))
    te1 = [_ror8(w) for w in te0]
    te2 = [_ror8(w) for w in te1]
    te3 = [_ror8(w) for w in te2]
    return te0, te1, te2, te3


_TE0, _TE1, _TE2, _TE3 = _build_encrypt_tables()


# -- generated per-key encryptor -----------------------------------------------
#
# The hottest primitive is single-block encryption, so the 9 identical
# rounds are unrolled into a generated closure whose 44 round-key words
# live in closure cells (LOAD_DEREF is as cheap as a local), eliminating
# the round loop, the key-schedule indexing and all per-call attribute
# lookups.  The four 256-entry T-tables are kept deliberately small — a
# 16-bit "paired table" variant benches faster in a tight loop but loses
# in real campaigns, where its multi-megabyte working set falls out of
# cache between calls.  The generator emits the same column equations the
# readable ``_encrypt_block_reference`` implements, and the import-time
# self-check plus the FIPS-197 vectors in the test suite pin the two
# together.


def _generate_encryptor_factory():
    """Compile the unrolled (128-bit int → 128-bit int) block encryptor."""
    lines = ["def _make_int_encryptor(rk, T0, T1, T2, T3, S):"]
    for i in range(44):
        lines.append(f"    k{i} = rk[{i}]")
    lines.append("    def encrypt_int(v):")
    lines.append(
        "        s0 = (v >> 96) ^ k0; s1 = ((v >> 64) & 4294967295) ^ k1; "
        "s2 = ((v >> 32) & 4294967295) ^ k2; s3 = (v & 4294967295) ^ k3"
    )
    for round_index in range(1, _ROUNDS):
        k = 4 * round_index
        for c in range(4):
            a, b, cc, d = c, (c + 1) % 4, (c + 2) % 4, (c + 3) % 4
            lines.append(
                f"        u{c} = T0[s{a} >> 24] ^ T1[(s{b} >> 16) & 255]"
                f" ^ T2[(s{cc} >> 8) & 255] ^ T3[s{d} & 255] ^ k{k + c}"
            )
        lines.append("        s0 = u0; s1 = u1; s2 = u2; s3 = u3")
    for c in range(4):
        a, b, cc, d = c, (c + 1) % 4, (c + 2) % 4, (c + 3) % 4
        lines.append(
            f"        u{c} = ((S[s{a} >> 24] << 24) | (S[(s{b} >> 16) & 255] << 16)"
            f" | (S[(s{cc} >> 8) & 255] << 8) | S[s{d} & 255]) ^ k{40 + c}"
        )
    lines.append("        return (u0 << 96) | (u1 << 64) | (u2 << 32) | u3")
    lines.append("    return encrypt_int")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<aes-codegen>", "exec"), namespace)
    return namespace["_make_int_encryptor"]


_make_int_encryptor = _generate_encryptor_factory()


def _expand_key_words(key: bytes) -> list[int]:
    """FIPS-197 key expansion as 44 big-endian 32-bit words (fast path).

    Processed four words per round: only the first word of each round
    applies RotWord/SubWord/Rcon, the other three are chained xors.
    """
    sbox = _SBOX
    w0, w1, w2, w3 = (int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4))
    words = [w0, w1, w2, w3]
    for rcon in _RCON:
        temp = ((w3 << 8) | (w3 >> 24)) & 0xFFFFFFFF  # RotWord
        temp = (  # SubWord
            (sbox[temp >> 24] << 24)
            | (sbox[(temp >> 16) & 0xFF] << 16)
            | (sbox[(temp >> 8) & 0xFF] << 8)
            | sbox[temp & 0xFF]
        ) ^ (rcon << 24)
        w0 ^= temp
        w1 ^= w0
        w2 ^= w1
        w3 ^= w2
        words += (w0, w1, w2, w3)
    return words


class AES128:
    """AES-128 with a fixed expanded key schedule.

    ``use_tables`` selects the T-table fast path explicitly; by default it
    follows the global :mod:`repro.fastpath` flag at construction time.
    Both paths produce bit-identical output.

    >>> cipher = AES128(bytes(range(16)))
    >>> cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff")).hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    __slots__ = (
        "_round_keys",
        "_enc_words",
        "_use_tables",
        "encrypt_int",
    )

    def __init__(self, key: bytes, use_tables: bool | None = None):
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
        if use_tables is None:
            use_tables = fastpath.enabled()
        if use_tables:
            self._set_schedule(_expand_key_words(key))
        else:
            self._use_tables = False
            self._round_keys = self._expand_key(key)
            self._enc_words = None
            self.encrypt_int = self._encrypt_int_reference

    @classmethod
    def many(cls, keys) -> list["AES128"]:
        """``[AES128(key) for key in keys]``, the key schedules expanded
        together.

        On the fast path one native call expands every key
        (:func:`repro.crypto.aesbatch.native_key_schedules`), where the
        library loaded; otherwise :func:`_expand_key_words`, its oracle,
        expands them one by one.  Either way each cipher's state is that
        of ``AES128(key)``.
        """
        keys = list(keys)
        if not fastpath.enabled():
            return [cls(key) for key in keys]
        for key in keys:
            if len(key) != KEY_SIZE:
                raise CryptoError(f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
        from repro.crypto import aesbatch

        schedules = aesbatch.native_key_schedules(b"".join(keys))
        if schedules is None:
            schedules = [_expand_key_words(key) for key in keys]
        ciphers = []
        for words in schedules:
            cipher = cls.__new__(cls)
            cipher._set_schedule(words)
            ciphers.append(cipher)
        return ciphers

    def _set_schedule(self, enc_words: list[int]) -> None:
        """Become the table-mode cipher of the schedule ``enc_words``."""
        self._use_tables = True
        self._enc_words = enc_words
        self._round_keys: list[list[int]] | None = None

    def __getattr__(self, name: str):
        """A table-mode cipher's ``encrypt_int``, generated on first use.

        ``encrypt_int`` is the 128-bit-int → 128-bit-int single-block
        encryption, the primitive behind every fast bulk path (CTR,
        CBC-MAC).  Only an unset slot reaches this method.  A deployment
        builds and loads its pairwise ciphers by the thousand, and most of
        them only lend their schedule words to the share-lane kernel, so the
        closure is made for those that encrypt block by block; a
        concurrent double-build is benign (both build the same closure).
        """
        if name != "encrypt_int" or not self._use_tables:
            raise AttributeError(name)
        encrypt_int = _make_int_encryptor(self._enc_words, _TE0, _TE1, _TE2, _TE3, _SBOX)
        self.encrypt_int = encrypt_int
        return encrypt_int

    @staticmethod
    def _expand_key(key: bytes) -> list[list[int]]:
        """FIPS-197 key expansion: 11 round keys of 16 bytes each."""
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 4 * (_ROUNDS + 1)):
            word = list(words[i - 1])
            if i % 4 == 0:
                word = word[1:] + word[:1]  # RotWord
                word = [_SBOX[b] for b in word]  # SubWord
                word[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], word)])
        round_keys = []
        for r in range(_ROUNDS + 1):
            key_bytes: list[int] = []
            for w in words[4 * r : 4 * r + 4]:
                key_bytes.extend(w)
            round_keys.append(key_bytes)
        return round_keys

    # State layout: list of 16 ints, column-major as in FIPS-197
    # (state[r + 4*c] is row r, column c) — matching the byte order of the
    # input block laid out column by column.

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # Row r shifts left by r positions.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            total = col[0] ^ col[1] ^ col[2] ^ col[3]
            first = col[0]
            state[4 * c + 0] = col[0] ^ total ^ _xtime(col[0] ^ col[1])
            state[4 * c + 1] = col[1] ^ total ^ _xtime(col[1] ^ col[2])
            state[4 * c + 2] = col[2] ^ total ^ _xtime(col[2] ^ col[3])
            state[4 * c + 3] = col[3] ^ total ^ _xtime(col[3] ^ first)

    def _add_round_key(self, state: list[int], round_index: int) -> None:
        round_key = self._round_keys[round_index]
        for i in range(16):
            state[i] ^= round_key[i]

    # -- reference data path ---------------------------------------------------

    def _encrypt_block_reference(self, block: bytes) -> bytes:
        state = list(block)
        self._add_round_key(state, 0)
        for round_index in range(1, _ROUNDS):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, round_index)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, _ROUNDS)
        return bytes(state)

    # -- T-table data path -----------------------------------------------------

    def _encrypt_int_reference(self, value: int) -> int:
        """128-bit-int encryption through the reference byte path."""
        return int.from_bytes(
            self._encrypt_block_reference(value.to_bytes(16, "big")), "big"
        )

    # -- public interface ------------------------------------------------------

    @property
    def uses_tables(self) -> bool:
        """Whether this instance runs the T-table fast path."""
        return self._use_tables

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        if self._use_tables:
            return self.encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")
        return self._encrypt_block_reference(block)

    def ctr_blocks(self, counter: int, count: int) -> bytes:
        """Keystream for ``count`` consecutive CTR counter blocks.

        ``counter`` is the 128-bit big-endian integer value of the first
        counter block; successive blocks increment it modulo 2^128.  This
        is the batched primitive behind :func:`repro.crypto.modes.ctr_keystream`
        and the DRBG — one call amortises the per-block dispatch overhead
        over a whole keystream run.
        """
        if count < 0:
            raise CryptoError(f"block count must be >= 0, got {count}")
        mask128 = (1 << 128) - 1
        counter &= mask128
        out = bytearray()
        if self._use_tables:
            encrypt_int = self.encrypt_int
            for _ in range(count):
                out += encrypt_int(counter).to_bytes(16, "big")
                counter = (counter + 1) & mask128
        else:
            for _ in range(count):
                out += self._encrypt_block_reference(counter.to_bytes(16, "big"))
                counter = (counter + 1) & mask128
        return bytes(out)


def _self_check() -> None:
    """Import-time known-answer check of the T-table path (FIPS-197 C.1)."""
    key = bytes(range(16))
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    cipher = AES128(key, use_tables=True)
    if cipher.encrypt_block(plaintext) != expected:
        raise CryptoError("AES T-table encryption failed its FIPS-197 self-check")


_self_check()
