"""Tests for metric containers and summaries."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import _metrics_of_rounds
from repro.core.metrics import NodeMetrics, RoundMetrics, RoundSummary
from repro.errors import ProtocolError


def node(node_id, latency, radio, aggregate=100, correct=True, contributors=None):
    return NodeMetrics(
        node=node_id,
        latency_us=latency,
        radio_on_us=radio,
        tx_us=radio // 4,
        rx_us=radio - radio // 4,
        aggregate=aggregate,
        contributors=frozenset(contributors or {0, 1}),
        correct=correct,
    )


def round_metrics(per_node, sources=frozenset({0, 1})):
    return RoundMetrics(
        per_node=per_node,
        expected_aggregate=100,
        sources=sources,
        sharing_duration_us=10_000,
        reconstruction_duration_us=2_000,
        sharing_slots=10,
        reconstruction_slots=5,
        chain_length_sharing=16,
        chain_length_reconstruction=4,
    )


class TestRoundMetrics:
    def test_latency_aggregates(self):
        metrics = round_metrics({0: node(0, 11_000, 9_000), 1: node(1, 12_000, 8_000)})
        assert metrics.max_latency_us == 12_000
        assert metrics.mean_latency_us == 11_500

    def test_incomplete_nodes_excluded_from_latency(self):
        metrics = round_metrics(
            {0: node(0, 11_000, 9_000), 1: node(1, None, 8_000, aggregate=None, correct=False)}
        )
        assert metrics.max_latency_us == 11_000
        assert metrics.latencies_us() == [11_000]

    def test_no_completion_raises(self):
        metrics = round_metrics(
            {0: node(0, None, 9_000, aggregate=None, correct=False)}
        )
        with pytest.raises(ProtocolError):
            _ = metrics.max_latency_us

    @pytest.mark.parametrize("latencies", [[None], [None, None], [0], [None, 5], [7, 9]])
    def test_has_latency_is_a_completed_node(self, latencies):
        # The per-round figure fold filters on has_latency; the degree
        # sweep used to filter on latencies_us(): the two agree.
        metrics = round_metrics(
            {i: node(i, latency, 1_000) for i, latency in enumerate(latencies)}
        )
        assert metrics.has_latency == bool(metrics.latencies_us())

    def test_radio_metrics(self):
        metrics = round_metrics({0: node(0, 1, 9_000), 1: node(1, 1, 7_000)})
        assert metrics.mean_radio_on_us == 8_000
        assert metrics.max_radio_on_us == 9_000

    def test_success_fraction(self):
        metrics = round_metrics(
            {0: node(0, 1, 1), 1: node(1, 1, 1, correct=False)}
        )
        assert metrics.success_fraction == 0.5
        assert not metrics.all_correct

    def test_all_correct_requires_full_contributors(self):
        metrics = round_metrics(
            {0: node(0, 1, 1, contributors={0})}, sources=frozenset({0, 1})
        )
        assert not metrics.all_correct

    def test_total_schedule(self):
        summary = RoundSummary.from_metrics(round_metrics({0: node(0, 1, 1)}))
        assert summary.sharing_duration_us + summary.reconstruction_duration_us == 12_000

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            round_metrics({})


class TestSummarizeRounds:
    """The Fig. 1 fold's per-round figures: latencies and radio-on in
    ms, and the mean success fraction."""

    def test_means_over_rounds(self):
        rounds = [
            round_metrics({0: node(0, 10_000, 6_000)}),
            round_metrics({0: node(0, 20_000, 10_000)}),
        ]
        latencies, radio, success = _metrics_of_rounds(rounds, "S4", 1)
        assert latencies == pytest.approx([10.0, 20.0])
        assert radio == pytest.approx([6.0, 10.0])
        assert success == 1.0

    def test_failed_rounds_tracked(self):
        rounds = [
            round_metrics({0: node(0, 10_000, 6_000)}),
            round_metrics(
                {0: node(0, None, 6_000, aggregate=None, correct=False)}
            ),
        ]
        latencies, _, success = _metrics_of_rounds(rounds, "S4", 1)
        assert latencies == pytest.approx([10.0])
        assert success == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            _metrics_of_rounds([], "S4", 1)
