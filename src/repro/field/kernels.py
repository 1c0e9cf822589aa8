"""Raw-integer kernels for the secret-sharing hot paths.

The :class:`~repro.field.prime_field.FieldElement` wrapper buys safety
(cross-field mixing is caught at the call site) at the price of one object
allocation and one ``%`` per arithmetic operation.  The sharing and
reconstruction hot loops evaluate millions of field operations per
campaign, so this module provides the same mathematics on plain Python
ints:

* :func:`mod_mersenne61` / :func:`mul_mod_mersenne61` — shift-and-add
  reduction for the library-default modulus ``2**61 - 1`` (a Mersenne
  prime: ``x mod p`` is a fold of the high bits onto the low bits).
  Measured caveat: at 61 bits CPython's native ``%`` (C-level bigint
  division) is ~2× faster than a Python-level fold, so the hot loops
  below deliberately use ``% prime``; these two kernels are the
  portable reference form (and the right shape for a future numpy/C
  backend, where the fold wins);
* :func:`inv_mod` — modular inversion via CPython's native
  ``pow(x, -1, p)`` (much faster than a Python-level extended Euclid);
* :func:`horner_eval` / :func:`horner_eval_many` — dealer-polynomial
  evaluation without intermediate ``FieldElement`` objects (the bulk
  form as one dot product per point against cached power rows), and
  :func:`horner_eval_m61`, the same bulk form over ``2**61 - 1`` in the
  native library's C kernel (``m61_horner.c``);
* :func:`lagrange_weight_values` — Lagrange basis weights with a single
  batched inversion (Montgomery's trick: ``k`` inverses for the price of
  one ``pow(x, -1, p)`` and ``3k`` multiplications).

Every kernel is value-equivalent to the readable implementation it
shadows; ``tests/field/test_kernels.py`` enforces exact agreement.
"""

from __future__ import annotations

from array import array
from operator import mul
from typing import Sequence

from repro import fastpath, native
from repro.errors import InterpolationError, NonInvertibleError

#: The Mersenne prime 2**61 - 1, the library-wide default modulus.
M61 = (1 << 61) - 1


def mod_mersenne61(x: int) -> int:
    """``x mod (2**61 - 1)`` for non-negative ``x`` via bit folding.

    Because ``2**61 ≡ 1 (mod p)``, the high bits of ``x`` can simply be
    added onto the low 61 bits; two folds canonicalise any product of two
    canonical residues (≤ 122 bits).
    """
    x = (x & M61) + (x >> 61)
    x = (x & M61) + (x >> 61)
    if x >= M61:
        x -= M61
    return x


def mul_mod_mersenne61(a: int, b: int) -> int:
    """Product of two canonical Mersenne-61 residues, reduced."""
    return mod_mersenne61(a * b)


def inv_mod(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``modulus``.

    Thin wrapper over CPython's native three-argument ``pow`` with the
    library's error type on non-invertible input.
    """
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NonInvertibleError(
            f"{a % modulus} has no inverse modulo {modulus}"
        ) from None


def horner_eval(coefficients: Sequence[int], x: int, prime: int) -> int:
    """Evaluate ``sum c_i * x**i`` at ``x`` over GF(prime), Horner style.

    ``coefficients`` are lowest-degree-first canonical residues; the
    result is a canonical residue.
    """
    accumulator = 0
    for coefficient in reversed(coefficients):
        accumulator = (accumulator * x + coefficient) % prime
    return accumulator


#: Power rows ``(1, x, x**2, ..., x**(length-1)) mod prime`` per point,
#: keyed by ``(points, length, prime)``.  A deployment deals every round
#: over the same public points, so the rows are built once and each
#: evaluation is one C-level dot product per point.  Cleared wholesale
#: when full (and by :func:`repro.fastpath.clear_process_caches`).
_POWER_ROWS: dict[tuple, tuple[tuple[int, ...], ...]] = {}
_POWER_ROWS_MAX = 64


def _power_rows(
    xs: Sequence[int], length: int, prime: int
) -> tuple[tuple[int, ...], ...]:
    key = (tuple(xs), length, prime)
    rows = _POWER_ROWS.get(key)
    if rows is None:
        built = []
        for x in key[0]:
            row = [1] * length
            power = 1
            for i in range(1, length):
                power = power * x % prime
                row[i] = power
            built.append(tuple(row))
        rows = tuple(built)
        if len(_POWER_ROWS) >= _POWER_ROWS_MAX:
            _POWER_ROWS.clear()
        _POWER_ROWS[key] = rows
    return rows


def horner_eval_many(
    coefficients: Sequence[int], xs: Sequence[int], prime: int
) -> list[int]:
    """Evaluate one polynomial at many points (the sharing-phase bulk op).

    Value-identical to :func:`horner_eval` at every point: ``sum c_i *
    x**i`` reduced once, against the cached power rows of ``xs``.
    """
    rows = _power_rows(xs, len(coefficients), prime)
    return [sum(map(mul, coefficients, row)) % prime for row in rows]


#: ``m61_horner`` in ``m61_horner.c``: no result; the coefficient count,
#: the point count and one word buffer holding the coefficients, then
#: the points, which the kernel overwrites with the values.
_M61_SIGNATURE = "vqqp"


def horner_eval_m61(coefficients: Sequence[int], xs: Sequence[int]) -> list[int] | None:
    """:func:`horner_eval_many` over :data:`M61` in C, value for value.

    ``xs`` may be an ``array("Q")``, which a caller that evaluates at
    the same points every round keeps: it is then copied into the
    kernel's buffer without a per-point conversion.  Returns ``None``,
    having computed nothing, where the C kernel cannot run it: the fast
    path is off, the native library did not load, or a coefficient or
    point is not an int in ``[0, 2**64)``.  The caller then keeps the
    Python path.
    """
    if not fastpath.enabled():
        return None
    kernel = native.kernel("m61_horner", _M61_SIGNATURE)
    if kernel is None:
        return None
    length = len(coefficients)
    try:
        words = array("Q", coefficients)
        words.extend(xs)
    except (OverflowError, TypeError):
        return None
    kernel(length, len(words) - length, words.buffer_info()[0])
    return words[length:].tolist()


def batch_inverse(values: Sequence[int], prime: int) -> list[int]:
    """Inverses of many non-zero residues with a single ``pow(x, -1, p)``.

    Montgomery's trick: invert the running product once, then peel the
    individual inverses off with two multiplications each.
    """
    prefix: list[int] = []
    running = 1
    for value in values:
        prefix.append(running)
        running = running * value % prime
    if not values:
        return []
    if running == 0:
        # Fall back to locating the offending zero for a precise error.
        for value in values:
            if value % prime == 0:
                raise NonInvertibleError(f"0 has no inverse modulo {prime}")
    inverse_running = inv_mod(running, prime)
    inverses = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        inverses[i] = prefix[i] * inverse_running % prime
        inverse_running = inverse_running * values[i] % prime
    return inverses


def lagrange_weight_values(
    xs: Sequence[int], prime: int, at: int = 0
) -> tuple[int, ...]:
    """Lagrange basis weights ``L_i(at)`` as canonical residues.

    Value-identical to
    :func:`repro.field.lagrange.lagrange_weights_at` but allocation-free
    and with all denominators inverted in one batch.  ``xs`` must already
    be canonical residues.
    """
    n = len(xs)
    if len(set(xs)) != n:
        raise InterpolationError("duplicate x-coordinates in weight computation")
    at %= prime
    # Numerators via prefix/suffix products of (at - x_j): O(n) instead of
    # the O(n^2) inner loop of the readable implementation.
    diffs = [(at - x) % prime for x in xs]
    prefix = [1] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] * diffs[i] % prime
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * diffs[i] % prime
    numerators = [prefix[i] * suffix[i + 1] % prime for i in range(n)]
    denominators = []
    for i, x_i in enumerate(xs):
        denominator = 1
        for j, x_j in enumerate(xs):
            if i != j:
                denominator = denominator * ((x_i - x_j) % prime) % prime
        denominators.append(denominator)
    inverses = batch_inverse(denominators, prime)
    return tuple(
        numerator * inverse % prime
        for numerator, inverse in zip(numerators, inverses)
    )
