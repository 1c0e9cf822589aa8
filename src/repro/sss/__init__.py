"""Shamir Secret Sharing and its additive-aggregation form.

This package is the *algorithmic* heart of the paper, independent of any
networking:

* :mod:`repro.sss.shares` — the :class:`Share` value type.
* :mod:`repro.sss.public_points` — the node-ID → field-point registry
  ("every node is designated for a specific public-point based on the ID
  of the node").
* :mod:`repro.sss.scheme` — classic dealer/reconstructor Shamir.
* :mod:`repro.sss.aggregation` — the PPDA construction: share-wise sums
  of many dealers' polynomials, consistency tracking, fault-tolerant
  reconstruction of the aggregate.
"""

from repro.sss.shares import Share
from repro.sss.public_points import PublicPointRegistry
from repro.sss.scheme import ShamirScheme
from repro.sss.aggregation import (
    AggregationResult,
    ShareAccumulator,
    reconstruct_aggregate,
    reconstruct_from_sums,
    reconstruct_many_from_sums,
)

__all__ = [
    "Share",
    "PublicPointRegistry",
    "ShamirScheme",
    "ShareAccumulator",
    "AggregationResult",
    "reconstruct_aggregate",
    "reconstruct_from_sums",
    "reconstruct_many_from_sums",
]
