"""Block-cipher modes of operation on top of :class:`AES128`.

CTR is the packet cipher: the sharing-phase sub-slot payload is a single
field element, and CTR turns AES into a stream cipher so payloads need no
padding and ciphertext length equals plaintext length (which keeps the
802.15.4 air-time model honest).  CBC exists to support CBC-MAC.
"""

from __future__ import annotations

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.errors import CryptoError


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) == len(b):
        # One big-int XOR beats a per-byte generator for the block-sized
        # operands every caller in this library uses.
        return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
            len(a), "big"
        )
    return bytes(x ^ y for x, y in zip(a, b))


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
        return (int.from_bytes(data, "big") ^ keystream).to_bytes(
            BLOCK_SIZE, "big"
        )
    return _xor_bytes(data, ctr_keystream(cipher, nonce, len(data)))


def cbc_encrypt(cipher: AES128, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt a block-aligned plaintext."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"CBC IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if len(plaintext) % BLOCK_SIZE != 0:
        raise CryptoError(
            f"CBC plaintext must be a multiple of {BLOCK_SIZE} bytes, "
            f"got {len(plaintext)}"
        )
    previous = iv
    ciphertext = bytearray()
    for offset in range(0, len(plaintext), BLOCK_SIZE):
        block = _xor_bytes(plaintext[offset : offset + BLOCK_SIZE], previous)
        previous = cipher.encrypt_block(block)
        ciphertext.extend(previous)
    return bytes(ciphertext)


def cbc_decrypt(cipher: AES128, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt a block-aligned ciphertext."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"CBC IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if len(ciphertext) % BLOCK_SIZE != 0:
        raise CryptoError(
            f"CBC ciphertext must be a multiple of {BLOCK_SIZE} bytes, "
            f"got {len(ciphertext)}"
        )
    previous = iv
    plaintext = bytearray()
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[offset : offset + BLOCK_SIZE]
        plaintext.extend(_xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    return bytes(plaintext)


def pad_pkcs7(data: bytes) -> bytes:
    """PKCS#7-pad ``data`` up to the next block boundary."""
    pad_length = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([pad_length]) * pad_length
