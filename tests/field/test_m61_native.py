"""GF(2**61 - 1) evaluation in C (``m61_horner.c``) against the Python kernel.

``Polynomial.evaluate_values`` over the default prime runs the native
Horner kernel where the library loaded, once per call; every other prime
and every input outside uint64 keeps ``horner_eval_many``, which is the
oracle these tests hold the kernel to.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fastpath, native
from repro.field import kernels
from repro.field.kernels import M61, horner_eval_m61, horner_eval_many
from repro.field.polynomial import Polynomial
from repro.field.prime_field import MERSENNE_127, PrimeField


@pytest.fixture
def horner_kernel(monkeypatch):
    """The point count of every call that reaches the C kernel, on the
    fast path; skips where the native library did not load."""
    if native.kernel("m61_horner", kernels._M61_SIGNATURE) is None:
        pytest.skip("no native library: the Python kernel is all there is")
    calls = []
    real = native.kernel

    def kernel(name, signature):
        function = real(name, signature)
        if function is None or name != "m61_horner":
            return function
        return lambda *args: calls.append(args[1]) or function(*args)

    monkeypatch.setattr(native, "kernel", kernel)
    with fastpath.forced(True):
        yield calls


residues = st.one_of(
    st.sampled_from([0, 1, M61 - 1]), st.integers(min_value=0, max_value=M61 - 1)
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    coefficients=st.lists(residues, min_size=1, max_size=65),
    points=st.lists(residues, max_size=20).map(lambda xs: [0, M61 - 1, *xs]),
)
def test_kernel_matches_python(horner_kernel, coefficients, points):
    before = len(horner_kernel)
    assert horner_eval_m61(coefficients, points) == horner_eval_many(coefficients, points, M61)
    assert horner_kernel[before:] == [len(points)]


def test_any_uint64_input_is_reduced_exactly(horner_kernel):
    words = [M61, M61 + 1, 2**63, 2**64 - 1]
    assert horner_eval_m61(words, [3, *words]) == horner_eval_many(words, [3, *words], M61)


def test_evaluate_values_calls_the_kernel_once_per_polynomial(horner_kernel):
    field = PrimeField(M61)
    polynomial = Polynomial(field, [M61 - 1] * 16)
    points = list(range(1, 19))
    assert polynomial.evaluate_values(points) == horner_eval_many(
        polynomial.coefficients, points, M61
    )
    assert horner_kernel == [18]


def test_other_primes_keep_the_python_kernel(horner_kernel):
    field = PrimeField(MERSENNE_127)
    polynomial = Polynomial(field, [MERSENNE_127 - 1, 5, 7])
    assert polynomial.evaluate_values([0, 2, 2**80]) == horner_eval_many(
        polynomial.coefficients, [0, 2, 2**80], MERSENNE_127
    )
    assert horner_kernel == []


@pytest.mark.parametrize("point", [2**64, -1])
def test_points_outside_uint64_take_the_python_path(horner_kernel, point):
    polynomial = Polynomial(PrimeField(M61), [4, 5, 6])
    assert horner_eval_m61(polynomial.coefficients, [1, point]) is None
    assert polynomial.evaluate_values([1, point]) == horner_eval_many([4, 5, 6], [1, point], M61)
    assert horner_kernel == []


def test_falls_back_silently_without_the_library(monkeypatch):
    polynomial = Polynomial(PrimeField(M61), [9, M61 - 1, 3])
    expected = horner_eval_many(polynomial.coefficients, [0, 7, M61 - 1], M61)
    monkeypatch.setattr(native, "library", lambda: None)
    with fastpath.forced(True):
        assert horner_eval_m61(polynomial.coefficients, [7]) is None
        assert polynomial.evaluate_values([0, 7, M61 - 1]) == expected


def test_reference_path_never_loads_the_kernel(monkeypatch):
    def refuse():
        raise AssertionError("the reference path must not load the native library")

    monkeypatch.setattr(native, "library", refuse)
    with fastpath.forced(False):
        assert Polynomial(PrimeField(M61), [1, 2]).evaluate_values([3]) == [7]
