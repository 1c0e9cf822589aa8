"""The fail-safe property, adversarially tested.

The single most important systems guarantee in this library: no matter
which shares get lost, duplicated across points, or delivered to some
collectors and not others, :func:`reconstruct_aggregate` either

* returns a value that is *exactly* the sum of the secrets of the
  contributor set it reports, or
* raises :class:`ReconstructionError`.

It must never return a value inconsistent with its own claim — that
would be a silently wrong aggregate, the one failure mode a deployed
aggregation system cannot have.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import accumulate
from repro.errors import ReconstructionError
from repro.field import MERSENNE_61, PrimeField
from repro.sss import ShamirScheme, reconstruct_aggregate

FIELD = PrimeField(MERSENNE_61)


@st.composite
def lossy_delivery(draw):
    """Random dealers, points, degree — and a random loss pattern."""
    degree = draw(st.integers(min_value=1, max_value=3))
    num_points = draw(st.integers(min_value=degree + 1, max_value=8))
    num_dealers = draw(st.integers(min_value=1, max_value=5))
    secrets = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=num_dealers,
            max_size=num_dealers,
        )
    )
    # delivery[dealer][point_index]: did this share arrive?
    delivery = draw(
        st.lists(
            st.lists(st.booleans(), min_size=num_points, max_size=num_points),
            min_size=num_dealers,
            max_size=num_dealers,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return degree, num_points, secrets, delivery, seed


@settings(max_examples=60, deadline=None)
@given(case=lossy_delivery())
def test_never_a_wrong_answer(case):
    degree, num_points, secrets, delivery, seed = case
    rng = random.Random(seed)
    scheme = ShamirScheme(FIELD, degree)
    points = list(range(1, num_points + 1))

    received = {x: [] for x in points}
    for dealer_id, secret in enumerate(secrets):
        shares = scheme.split(secret, points=points, rng=rng, dealer_id=dealer_id)
        for index, share in enumerate(shares):
            if delivery[dealer_id][index]:
                received[share.x.value].append(share)

    candidates = [accumulate(FIELD, x, shares) for x, shares in received.items() if shares]
    try:
        result = reconstruct_aggregate(FIELD, candidates, degree)
    except ReconstructionError:
        return  # refusing to answer is always safe

    # The reported value must equal the sum of the secrets of exactly
    # the contributor set the result claims.
    claimed = sum(secrets[d] for d in result.contributors) % FIELD.prime
    assert result.value.value == claimed
    assert result.points_used >= degree + 1
    assert result.contributors  # an empty claim would be vacuous
