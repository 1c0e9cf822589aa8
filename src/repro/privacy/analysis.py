"""What a coalition learns from a protocol round.

* :func:`guess_secret_from_view` — the adversary's best effort: with
  ``degree + 1`` shares it recovers a secret exactly, below that it
  refuses to guess.
* :func:`run_protocol_coalition_experiment` — run a round and pool the
  shares a coalition's members decrypted, then guess every dealer's
  secret from them (the ``privacy`` scenario).

The perfect-secrecy checks that pin Shamir's theorem itself, exhaustive
over a tiny field and statistical over the production field, live with
the tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.prng import AesCtrDrbg
from repro.field.polynomial import Polynomial
from repro.field.prime_field import PrimeField


def guess_secret_from_view(
    field: PrimeField,
    degree: int,
    shares: Sequence[tuple[int, int]],
) -> int | None:
    """The adversary's best guess given ``(x, y)`` share pairs.

    With at least ``degree + 1`` shares the secret is determined exactly;
    below that the function refuses to guess (any guess would be
    uniformly wrong).
    """
    if len(shares) < degree + 1:
        return None
    from repro.field.lagrange import interpolate_constant

    return interpolate_constant(field, shares[: degree + 1]).value


def run_protocol_coalition_experiment(
    engine,
    secrets: dict[int, int],
    coalition_members: Sequence[int],
    seed: int = 0,
) -> dict[str, object]:
    """End-to-end: run a protocol round, pool a coalition's decrypted view.

    Uses the engine's own codecs and the round's actual delivery to
    reproduce exactly what corrupted destinations saw; returns
    per-dealer share counts and whether any honest dealer's secret is
    recoverable by the coalition.
    """
    from repro.privacy.adversary import Coalition

    coalition = Coalition(coalition_members)
    degree = engine.config.degree
    field = engine.config.field
    metrics = engine.run(secrets, seed=seed)

    # Re-derive what each coalition member decrypted: the engine's
    # accumulators are not exposed, but shares addressed to a member are
    # exactly the (dealer → share) pairs it could decrypt, which we can
    # reconstruct from the round's deterministic dealing.
    dealer_root = AesCtrDrbg.from_seed(f"round-{seed}")
    pooled: dict[int, list[tuple[int, int]]] = {}
    destinations = engine.destinations(sorted(secrets))
    for dealer in sorted(secrets):
        poly = Polynomial.random_with_secret(
            field, secrets[dealer], degree, dealer_root.fork(f"dealer-{dealer}")
        )
        for member in coalition.members:
            if member in destinations:
                x = engine.registry.point_of(member)
                pooled.setdefault(dealer, []).append((x.value, poly(x).value))

    recovered = {}
    for dealer, shares in pooled.items():
        guess = guess_secret_from_view(field, degree, shares)
        if guess is not None:
            recovered[dealer] = guess
    return {
        "coalition_size": coalition.size,
        "breaches_threshold": coalition.breaches_threshold(degree),
        "shares_per_dealer": {d: len(s) for d, s in pooled.items()},
        "recovered_secrets": recovered,
        "round_success": metrics.success_fraction,
    }
