"""Classic Shamir Secret Sharing (dealer / reconstructor).

:class:`ShamirScheme` is the textbook scheme: split a secret into shares
evaluated at given public points, reconstruct from any ``degree + 1`` of
them.  The aggregation protocol in :mod:`repro.sss.aggregation` composes
many dealers' shares; this class is the single-dealer building block and
is also used directly by the privacy analysis.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ReconstructionError, SecretSharingError
from repro.field.kernels import horner_eval_many
from repro.field.lagrange import interpolate_constant
from repro.field.polynomial import Polynomial
from repro.field.prime_field import FieldElement, IntoElement, PrimeField
from repro.sss.shares import Share


class ShamirScheme:
    """A ``(degree, n)`` Shamir scheme over a prime field.

    ``degree`` is the polynomial degree, i.e. the *collusion threshold*:
    any coalition of at most ``degree`` share-holders learns nothing about
    the secret, while any ``degree + 1`` shares reconstruct it exactly.
    """

    __slots__ = ("_field", "_degree")

    def __init__(self, field: PrimeField, degree: int):
        if degree < 0:
            raise SecretSharingError(f"degree must be >= 0, got {degree}")
        if degree >= field.prime - 1:
            raise SecretSharingError(
                f"degree {degree} too large for GF({field.prime})"
            )
        self._field = field
        self._degree = degree

    @property
    def field(self) -> PrimeField:
        """Field the scheme operates in."""
        return self._field

    @property
    def degree(self) -> int:
        """Polynomial degree == collusion threshold."""
        return self._degree

    @property
    def threshold(self) -> int:
        """Number of shares needed to reconstruct (``degree + 1``)."""
        return self._degree + 1

    def deal_polynomial(self, secret: IntoElement, rng) -> Polynomial:
        """Draw the dealer polynomial hiding ``secret``."""
        return Polynomial.random_with_secret(
            self._field, secret, self._degree, rng
        )

    def _validated_points(
        self, points: Sequence[IntoElement]
    ) -> list[FieldElement]:
        """Coerce and validate a public-point set (shared by both splits).

        ``points`` must contain at least ``degree + 1`` distinct non-zero
        points, otherwise the secret could never be reconstructed.
        """
        elements = [self._field(p) for p in points]
        if len({e.value for e in elements}) != len(elements):
            raise SecretSharingError("public points must be distinct")
        if any(e.value == 0 for e in elements):
            raise SecretSharingError("x=0 cannot be a public point")
        if len(elements) < self.threshold:
            raise SecretSharingError(
                f"need at least {self.threshold} points for degree "
                f"{self._degree}, got {len(elements)}"
            )
        return elements

    def split(
        self,
        secret: IntoElement,
        points: Sequence[IntoElement],
        rng,
        dealer_id: int = 0,
    ) -> list[Share]:
        """Split ``secret`` into one share per public point."""
        elements = self._validated_points(points)
        polynomial = self.deal_polynomial(secret, rng)
        return [
            Share(dealer_id=dealer_id, x=x, y=polynomial(x)) for x in elements
        ]

    def split_many(
        self,
        secrets: Sequence[IntoElement],
        points: Sequence[IntoElement],
        rng,
        dealer_ids: Sequence[int] | None = None,
    ) -> list[list[Share]]:
        """Split many secrets at once over a common public-point set.

        The batched form of :meth:`split`: point validation happens once,
        each dealer polynomial is evaluated with the raw-integer Horner
        kernel, and ``FieldElement`` objects are built only for the final
        :class:`Share` values.  The randomness draw order matches
        ``[self.split(s, points, rng) for s in secrets]`` exactly, so the
        two paths produce *identical* shares from identical RNG state
        (enforced by ``tests/sss/test_batch_fastpath.py``).
        """
        if dealer_ids is None:
            dealer_ids = range(len(secrets))
        elif len(dealer_ids) != len(secrets):
            raise SecretSharingError(
                f"{len(dealer_ids)} dealer ids for {len(secrets)} secrets"
            )
        field = self._field
        elements = self._validated_points(points)
        x_values = [e.value for e in elements]
        prime = field.prime
        batches: list[list[Share]] = []
        for secret, dealer_id in zip(secrets, dealer_ids):
            polynomial = self.deal_polynomial(secret, rng)
            values = horner_eval_many(polynomial.coefficients, x_values, prime)
            batches.append(
                [
                    Share(dealer_id=dealer_id, x=x, y=FieldElement(field, y))
                    for x, y in zip(elements, values)
                ]
            )
        return batches

    def reconstruct(self, shares: Sequence[Share]) -> FieldElement:
        """Reconstruct the secret from at least ``degree + 1`` shares."""
        self._validate_share_set(shares)
        points = [(share.x, share.y) for share in shares[: self.threshold]]
        return interpolate_constant(self._field, points)

    def _validate_share_set(self, shares: Sequence[Share]) -> None:
        if len(shares) < self.threshold:
            raise ReconstructionError(
                f"need {self.threshold} shares, got {len(shares)}"
            )
        xs = [share.x.value for share in shares]
        if len(set(xs)) != len(xs):
            raise ReconstructionError("shares contain duplicate x-coordinates")
        for share in shares:
            if share.x.field is not self._field:
                raise ReconstructionError("share from a different field")

    def __repr__(self) -> str:
        return f"ShamirScheme(degree={self._degree}, field=GF({self._field.prime}))"
