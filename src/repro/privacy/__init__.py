"""Privacy analysis: the semi-honest adversary and what it learns.

The paper's security model is semi-honest with a collusion threshold of
the polynomial degree ``p``: any coalition of at most ``p`` share-holders
learns nothing about any individual secret.  This package provides:

* :mod:`repro.privacy.adversary` — a coalition that records every value
  its members legitimately see during a protocol round (shares, sums,
  reconstruction output) and attempts inference from them.
* :mod:`repro.privacy.analysis` — verification tooling: exhaustive
  perfect-secrecy checks over tiny fields, statistical
  indistinguishability over the production field, and leakage detection
  for above-threshold coalitions (which *should* break privacy — a
  sanity check that the tooling has teeth).
"""

from repro.privacy.adversary import Coalition
from repro.privacy.analysis import (
    exhaustive_secrecy_check,
    guess_secret_from_view,
    statistical_view_distance,
)

__all__ = [
    "Coalition",
    "exhaustive_secrecy_check",
    "guess_secret_from_view",
    "statistical_view_distance",
]
