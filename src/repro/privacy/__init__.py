"""Privacy analysis: the semi-honest adversary and what it learns.

The paper's security model is semi-honest with a collusion threshold of
the polynomial degree ``p``: any coalition of at most ``p`` share-holders
learns nothing about any individual secret.  This package provides:

* :mod:`repro.privacy.adversary` — a coalition that records every value
  its members legitimately see during a protocol round (shares, sums,
  reconstruction output) and attempts inference from them.
* :mod:`repro.privacy.analysis` — leakage detection: a round's
  coalition pools the shares its members decrypted and guesses every
  dealer's secret, which succeeds exactly for above-threshold coalitions.
"""

from repro.privacy.adversary import Coalition
from repro.privacy.analysis import guess_secret_from_view

__all__ = [
    "Coalition",
    "guess_secret_from_view",
]
