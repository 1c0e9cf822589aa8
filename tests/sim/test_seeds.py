"""Tests for deterministic seed derivation (campaign fan-out contract)."""

from __future__ import annotations

import pytest

from repro.sim.seeds import child_seed, iteration_seeds, stable_seed


class TestStableSeed:
    def test_deterministic_across_calls(self):
        assert stable_seed(1, "s3", 7) == stable_seed(1, "s3", 7)

    def test_type_tagged(self):
        # An int part and its string rendering must not collide.
        assert stable_seed(1) != stable_seed("1")
        assert stable_seed(b"x") != stable_seed("x")

    def test_rejects_unsupported(self):
        with pytest.raises(TypeError):
            stable_seed(object())

    def test_deterministic(self):
        assert stable_seed(1, "x") == stable_seed(1, "x")

    def test_order_matters(self):
        assert stable_seed(1, 2) != stable_seed(2, 1)

    def test_type_distinguished(self):
        assert stable_seed(1) != stable_seed("1")
        assert stable_seed(b"a") != stable_seed("a")

    def test_no_concat_ambiguity(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_float_support(self):
        assert stable_seed(0.5) == stable_seed(0.5)
        assert stable_seed(0.5) != stable_seed(0.25)

    def test_negative_int(self):
        assert stable_seed(-5) != stable_seed(5)

    def test_64_bit_range(self):
        assert 0 <= stable_seed("anything") < (1 << 64)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            stable_seed([1, 2])  # type: ignore[arg-type]

    def test_known_regression_value(self):
        # Pin literal values: if the derivation ever changes, every recorded
        # experiment seed silently changes meaning — fail loudly instead.
        assert stable_seed(1, "sharing") == 9488653395405603147
        assert stable_seed(1, "reconstruction") == 17251983286379422076
        assert isinstance(stable_seed(1, "sharing"), int)


class TestChildSeed:
    def test_matches_stable_seed_derivation(self):
        # The serial experiment loops derive round seeds via stable_seed;
        # child_seed must be the same rule or parallel streams diverge.
        assert child_seed(42, "S4", 3) == stable_seed(42, "S4", 3)

    def test_distinct_labels_distinct_children(self):
        children = {child_seed(9, label) for label in ("a", "b", "c", 0, 1)}
        assert len(children) == 5

    def test_distinct_parents_distinct_children(self):
        assert child_seed(1, "x") != child_seed(2, "x")

    def test_64_bit_range(self):
        for parent in range(20):
            assert 0 <= child_seed(parent, "range") < 2**64


class TestIterationSeeds:
    def test_absolute_indexing(self):
        seeds = iteration_seeds(5, "S3", 10, 3)
        assert seeds == [stable_seed(5, "S3", i) for i in (10, 11, 12)]

    def test_chunk_invariance(self):
        whole = iteration_seeds(7, "S4", 0, 10)
        chunked = (
            iteration_seeds(7, "S4", 0, 4)
            + iteration_seeds(7, "S4", 4, 5)
            + iteration_seeds(7, "S4", 9, 1)
        )
        assert whole == chunked

    def test_empty_chunk(self):
        assert iteration_seeds(7, "S4", 3, 0) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            iteration_seeds(1, "x", -1, 2)
        with pytest.raises(ValueError):
            iteration_seeds(1, "x", 0, -2)

    def test_no_cross_label_collisions(self):
        s3 = iteration_seeds(1, "S3", 0, 50)
        s4 = iteration_seeds(1, "S4", 0, 50)
        assert not set(s3) & set(s4)

    def test_stream_independence(self):
        seeds = iteration_seeds(11, "workers", 0, 8)
        assert len(seeds) == len(set(seeds)) == 8
