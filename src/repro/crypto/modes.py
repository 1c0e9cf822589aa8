"""Block-cipher modes of operation on top of :class:`AES128`.

CTR is the packet cipher: the sharing-phase sub-slot payload is a single
field element, and CTR turns AES into a stream cipher so payloads need no
padding and ciphertext length equals plaintext length (which keeps the
802.15.4 air-time model honest).  CBC-MAC (:mod:`repro.crypto.mac`)
chains its blocks itself and needs only the padding below; neither mode
ever runs the inverse cipher.
"""

from __future__ import annotations

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.errors import CryptoError


def ctr_keystream(cipher: AES128, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes for a 16-byte initial counter.

    The full 16-byte ``nonce`` is the initial counter block; successive
    blocks increment it as a big-endian 128-bit integer (wrapping), per
    SP 800-38A.  The blocks are produced in one batched
    :meth:`AES128.ctr_blocks` call.
    """
    if len(nonce) != BLOCK_SIZE:
        raise CryptoError(f"CTR nonce must be {BLOCK_SIZE} bytes, got {len(nonce)}")
    if length < 0:
        raise CryptoError(f"keystream length must be >= 0, got {length}")
    blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    stream = cipher.ctr_blocks(int.from_bytes(nonce, "big"), blocks)
    return stream[:length]


def ctr_transform(cipher: AES128, nonce: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` in CTR mode (the operation is its own
    inverse)."""
    if len(data) == BLOCK_SIZE and len(nonce) == BLOCK_SIZE:
        # Single-block payloads (every share packet) skip the keystream
        # buffer entirely: one int encryption, one int XOR.
        keystream = cipher.encrypt_int(int.from_bytes(nonce, "big"))
    else:
        keystream = int.from_bytes(ctr_keystream(cipher, nonce, len(data)), "big")
    return (int.from_bytes(data, "big") ^ keystream).to_bytes(len(data), "big")


def pad_pkcs7(data: bytes) -> bytes:
    """PKCS#7-pad ``data`` up to the next block boundary."""
    pad_length = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([pad_length]) * pad_length
