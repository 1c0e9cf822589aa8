"""CBC-MAC message authentication.

Sharing-phase packets carry a short authentication tag so a receiver can
reject sub-slots corrupted in flight (or spoofed by a non-colluding
outsider).  Classic CBC-MAC is insecure for variable-length messages, so
we prepend the message length to the first block (the standard
length-prepending fix), which is sound for the fixed-format packets this
library exchanges.
"""

from __future__ import annotations

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.crypto.modes import pad_pkcs7
from repro.errors import AuthenticationError, CryptoError

#: Default truncated tag length carried in packets (bytes).
DEFAULT_TAG_LENGTH = 4


def check_tag_length(tag_length: int) -> None:
    """Refuse a truncated tag length outside ``[1, BLOCK_SIZE]`` bytes."""
    if not 1 <= tag_length <= BLOCK_SIZE:
        raise CryptoError(
            f"tag length must be in [1, {BLOCK_SIZE}], got {tag_length}"
        )


def cbc_mac(cipher: AES128, message: bytes, tag_length: int = DEFAULT_TAG_LENGTH) -> bytes:
    """Length-prepended CBC-MAC, truncated to ``tag_length`` bytes.

    Only the final CBC block survives into the tag, so the chain is
    computed on 128-bit ints via :attr:`AES128.encrypt_int` — no
    intermediate ciphertext bytes, no per-block XOR helper.  The chained
    value is identical to ``cbc_encrypt(cipher, zero_iv, padded)[-16:]``
    (the modes tests pin the two together).
    """
    check_tag_length(tag_length)
    prefixed = len(message).to_bytes(8, "big") + message
    padded = pad_pkcs7(prefixed)
    encrypt_int = cipher.encrypt_int
    data = int.from_bytes(padded, "big")
    chained = 0
    mask = (1 << 128) - 1
    for shift in range(8 * len(padded) - 128, -1, -128):
        chained = encrypt_int((data >> shift & mask) ^ chained)
    return chained.to_bytes(BLOCK_SIZE, "big")[:tag_length]


def verify_mac(
    cipher: AES128,
    message: bytes,
    tag: bytes,
    tag_length: int = DEFAULT_TAG_LENGTH,
) -> None:
    """Verify a CBC-MAC tag; raises :class:`AuthenticationError` on mismatch."""
    expected = cbc_mac(cipher, message, tag_length)
    # Constant-time-ish comparison; timing attacks are out of scope for a
    # simulator but the habit is free.
    if len(tag) != len(expected):
        raise AuthenticationError("MAC length mismatch")
    difference = 0
    for a, b in zip(tag, expected):
        difference |= a ^ b
    if difference:
        raise AuthenticationError("MAC verification failed")
