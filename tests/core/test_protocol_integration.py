"""Integration tests: full S3/S4 rounds on a small network."""

from __future__ import annotations

import pytest

from repro.core.config import CryptoMode, ProtocolConfig, S3Config, S4Config
from repro.core.s3 import S3Engine
from repro.core.s4 import S4Engine
from repro.errors import ProtocolError
from repro.field import MERSENNE_61


class TestS3Round:
    def test_correct_aggregate_everywhere(self, s3_engine, secrets):
        metrics = s3_engine.run(secrets, seed=1)
        expected = sum(secrets.values()) % MERSENNE_61
        assert metrics.expected_aggregate == expected
        assert metrics.all_correct
        for node_metrics in metrics.per_node.values():
            assert node_metrics.aggregate == expected
            assert node_metrics.contributors == frozenset(secrets)

    def test_latency_positive_and_bounded(self, s3_engine, secrets):
        metrics = s3_engine.run(secrets, seed=2)
        schedule_us = metrics.sharing_duration_us + metrics.reconstruction_duration_us
        assert 0 < metrics.max_latency_us <= schedule_us

    def test_radio_on_equals_schedule_for_naive(self, s3_engine, secrets):
        # ALWAYS_ON: every surviving node pays the full schedule.
        metrics = s3_engine.run(secrets, seed=3)
        schedule_us = metrics.sharing_duration_us + metrics.reconstruction_duration_us
        for node_metrics in metrics.per_node.values():
            assert node_metrics.radio_on_us == schedule_us

    def test_chain_is_n_squared(self, s3_engine, secrets):
        metrics = s3_engine.run(secrets, seed=4)
        n = len(s3_engine.topology)
        assert metrics.chain_length_sharing == n * n
        assert metrics.chain_length_reconstruction == n

    def test_static_chain_even_with_few_sources(self, s3_engine):
        # 4 sources out of 9 nodes: the naive chain stays n^2.
        few = {0: 1, 1: 2, 2: 3, 3: 4}
        metrics = s3_engine.run(few, seed=5)
        assert metrics.chain_length_sharing == 81
        assert metrics.all_correct
        assert metrics.expected_aggregate == 10

    def test_deterministic_given_seed(self, s3_engine, secrets):
        a = s3_engine.run(secrets, seed=6)
        b = s3_engine.run(secrets, seed=6)
        assert a.max_latency_us == b.max_latency_us
        assert a.mean_radio_on_us == b.mean_radio_on_us

    def test_rejects_empty_sources(self, s3_engine):
        with pytest.raises(ProtocolError):
            s3_engine.run({}, seed=1)

    def test_rejects_unknown_source(self, s3_engine):
        with pytest.raises(ProtocolError):
            s3_engine.run({99: 1}, seed=1)


class TestS4Round:
    def test_correct_aggregate_everywhere(self, s4_engine, secrets):
        metrics = s4_engine.run(secrets, seed=1)
        expected = sum(secrets.values()) % MERSENNE_61
        assert metrics.expected_aggregate == expected
        assert metrics.success_fraction == 1.0

    def test_chain_is_sources_times_collectors(self, s4_engine, secrets):
        metrics = s4_engine.run(secrets, seed=2)
        m = len(s4_engine.bootstrap_for(sorted(secrets)).collectors)
        assert metrics.chain_length_sharing == len(secrets) * m
        assert metrics.chain_length_reconstruction <= m

    def test_sharing_chain_smaller_than_s3(self, s3_engine, s4_engine, secrets):
        m3 = s3_engine.run(secrets, seed=3)
        m4 = s4_engine.run(secrets, seed=3)
        assert m4.chain_length_sharing < m3.chain_length_sharing

    def test_faster_and_leaner_than_s3(self, s3_engine, s4_engine, secrets):
        m3 = s3_engine.run(secrets, seed=4)
        m4 = s4_engine.run(secrets, seed=4)
        assert m4.max_latency_us < m3.max_latency_us
        assert m4.mean_radio_on_us < m3.mean_radio_on_us

    def test_bootstrap_cached_per_source_set(self, s4_engine, secrets):
        a = s4_engine.bootstrap_for(sorted(secrets))
        b = s4_engine.bootstrap_for(sorted(secrets))
        assert a is b

    def test_collectors_at_least_threshold(self, s4_engine, secrets):
        bootstrap = s4_engine.bootstrap_for(sorted(secrets))
        assert len(bootstrap.collectors) >= s4_engine.config.threshold

    def test_subset_of_sources(self, s4_engine):
        few = {0: 5, 4: 7, 8: 9}
        metrics = s4_engine.run(few, seed=5)
        assert metrics.expected_aggregate == 21
        assert metrics.success_fraction == 1.0


class TestCryptoModeEquivalence:
    def test_stub_and_real_give_identical_metrics(self, small_network):
        # The cipher cannot change what the radio does: STUB and REAL
        # rounds must produce bit-identical timing/energy metrics.
        topology, channel = small_network
        results = {}
        for mode in (CryptoMode.REAL, CryptoMode.STUB):
            base = ProtocolConfig(degree=2, crypto_mode=mode)
            engine = S3Engine(topology, channel, S3Config(base=base, ntx=5))
            secrets = {node: 10 + node for node in topology.node_ids}
            results[mode] = engine.run(secrets, seed=9)
        real, stub = results[CryptoMode.REAL], results[CryptoMode.STUB]
        assert real.max_latency_us == stub.max_latency_us
        assert real.mean_radio_on_us == stub.mean_radio_on_us
        assert real.expected_aggregate == stub.expected_aggregate
        assert [m.aggregate for m in real.per_node.values()] == [
            m.aggregate for m in stub.per_node.values()
        ]


class TestFailureInjection:
    def test_source_failure_excluded_but_consistent(self, s4_engine, secrets):
        # Node 8 dies at the very start of sharing: its secret should be
        # missing from the aggregate, but every surviving node should
        # still agree on the partial sum.
        metrics = s4_engine.run(secrets, seed=11, sharing_failures={8: 0})
        survivors = [m for n, m in metrics.per_node.items() if n != 8]
        values = {m.aggregate for m in survivors}
        assert len(values) == 1
        aggregate = values.pop()
        assert aggregate is not None
        contributors = survivors[0].contributors
        assert 8 not in contributors
        expected = sum(secrets[s] for s in contributors) % MERSENNE_61
        assert aggregate == expected

    def test_collector_failure_tolerated(self, s4_engine, secrets):
        bootstrap = s4_engine.bootstrap_for(sorted(secrets))
        victim = bootstrap.collectors[0]
        metrics = s4_engine.run(
            secrets, seed=12, reconstruction_failures={victim: 0}
        )
        survivors = [
            m for n, m in metrics.per_node.items() if n != victim
        ]
        correct = sum(1 for m in survivors if m.correct)
        assert correct >= len(survivors) - 1

    def test_failed_node_reports_no_aggregate(self, s3_engine, secrets):
        metrics = s3_engine.run(secrets, seed=13, sharing_failures={4: 0})
        assert metrics.per_node[4].aggregate is None
        assert metrics.per_node[4].latency_us is None
        assert not metrics.per_node[4].correct

    def test_too_many_failures_break_reconstruction(self, small_network):
        # Degree 2 needs 3 consistent sums; kill all but 2 holders in a
        # 4-collector S4 setup and reconstruction must fail gracefully.
        topology, channel = small_network
        base = ProtocolConfig(degree=2, crypto_mode=CryptoMode.STUB)
        engine = S4Engine(
            topology,
            channel,
            S4Config(
                base=base,
                sharing_ntx=4,
                reconstruction_ntx=6,
                collector_redundancy=1,
                bootstrap_iterations=6,
            ),
        )
        secrets = {node: 1 for node in topology.node_ids}
        collectors = engine.bootstrap_for(sorted(secrets)).collectors
        failures = {c: 0 for c in collectors[:2]}
        metrics = engine.run(secrets, seed=14, reconstruction_failures=failures)
        # With only 2 of 4 collectors alive, nobody can gather 3 sums.
        assert metrics.success_fraction == 0.0
