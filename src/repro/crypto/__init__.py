"""Cryptographic substrate, implemented from scratch.

The paper encrypts every sharing-phase packet with AES-128 using pairwise
keys assumed to be installed during bootstrapping.  This package provides
everything that requires:

* :mod:`repro.crypto.aes` — the AES-128 forward block cipher (FIPS-197),
  pure Python.
* :mod:`repro.crypto.modes` — CTR mode (the packet cipher) and the
  padding the MAC uses.
* :mod:`repro.crypto.mac` — CBC-MAC with length prepending for
  fixed-format packet authentication.
* :mod:`repro.crypto.prng` — a deterministic AES-CTR DRBG used wherever
  the *protocol* needs randomness (polynomial coefficients, nonces) so
  simulations are reproducible from a seed.
* :mod:`repro.crypto.keystore` — pairwise key pre-distribution, modelling
  the paper's "key ... assumed to be already shared ... during the
  bootstrapping phase".
"""

from repro.crypto.aes import AES128, BLOCK_SIZE, KEY_SIZE
from repro.crypto.modes import ctr_keystream, ctr_transform
from repro.crypto.mac import cbc_mac, verify_mac
from repro.crypto.prng import AesCtrDrbg
from repro.crypto.keystore import PairwiseKeyStore, derive_pairwise_key

__all__ = [
    "AES128",
    "BLOCK_SIZE",
    "KEY_SIZE",
    "ctr_keystream",
    "ctr_transform",
    "cbc_mac",
    "verify_mac",
    "AesCtrDrbg",
    "PairwiseKeyStore",
    "derive_pairwise_key",
]
