"""Tests for sharded MPC cells, cross-cell aggregation and streaming metrics.

The acceptance criteria this module pins:

* a sharded campaign over >= 4 cells reproduces the flat deployment's
  aggregate exactly (bit-identical expected sums) on a fixed seed,
  serially **and** over worker processes;
* cell partitioning and per-cell seeding are deterministic;
* streaming ``RoundSummary`` metrics are exactly the summarised form of
  the dense ``RoundMetrics`` for the same rounds, and experiments accept
  either form with identical results.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.campaign import CampaignExecutor
from repro.analysis.sharding import (
    cross_cell_aggregate,
    degree_for_cell,
    flat_expected_sums,
    plan_cell_units,
)
from repro.analysis.experiments import _metrics_of_rounds
from repro.core.metrics import RoundMetrics, RoundSummary
from repro.errors import ConfigurationError
from repro.phy.channel import ChannelParameters
from repro.scenarios import Figure1Spec, Session, ShardedSpec
from repro.topology.generators import grid
from repro.topology.testbeds import TestbedSpec as BedSpec


@pytest.fixture(scope="module")
def mini_spec():
    # Denser than the campaign-test spec (5 m pitch): an engine-simulated
    # *half* of this grid must still field 3 qualified collectors.
    topology = grid(3, 3, spacing_m=5.0, jitter_m=0.5, seed=4)
    channel = ChannelParameters(
        path_loss_exponent=4.0,
        reference_loss_db=52.0,
        shadowing_sigma_db=1.0,
        noise_floor_dbm=-96.0,
        shadowing_seed=5,
    )
    return BedSpec(
        topology=topology,
        channel=channel,
        sharing_ntx=4,
        full_coverage_ntx=6,
        source_sweep=(4, 9),
        name="mini-shard",
        extras={"s4_sharing_ntx": 4, "s4_redundancy": 1},
    )


@pytest.fixture(scope="module")
def big_topology():
    """A 48-node deployment, big enough for a meaningful cell split."""
    return grid(8, 6, spacing_m=9.0, jitter_m=0.8, seed=21)


@pytest.fixture(scope="module")
def pool():
    """One persistent 2-worker spawn pool for the whole module."""
    with CampaignExecutor(workers=2) as executor:
        executor.warm_up()
        yield executor


def run(spec, deployment, metrics="summary", executor=None):
    """One scenario run, serial or on an injected executor; the payload."""
    with Session(metrics=metrics, executor=executor) as session:
        return session.run(spec, deployment=deployment).payload


class TestCrossCellExactness:
    """Cross-cell sum == flat-deployment sum, the tentpole property."""

    def test_four_cells_match_flat_sums(self, big_topology):
        result = run(ShardedSpec(cells=4, iterations=5, seed=9), big_topology)
        flat = flat_expected_sums(big_topology.node_ids, 5)
        assert result.totals == flat
        assert result.expected == flat
        assert result.all_match

    def test_many_cell_counts_agree(self, big_topology):
        flat = flat_expected_sums(big_topology.node_ids, 3)
        for cells in (1, 2, 6, 8):
            result = run(ShardedSpec(cells=cells, iterations=3, seed=9), big_topology)
            assert result.totals == flat, f"cells={cells}"

    def test_serial_parallel_identity(self, big_topology, pool):
        spec = ShardedSpec(cells=4, iterations=3, seed=5)
        serial = run(spec, big_topology)
        parallel = run(spec, big_topology, executor=pool)
        assert parallel == serial
        assert parallel.all_match

    def test_engine_simulated_cells_match_flat_sums(self, mini_spec, pool):
        spec = ShardedSpec(cells=2, iterations=3, seed=3)
        serial = run(spec, mini_spec)
        assert serial.totals == flat_expected_sums(
            mini_spec.topology.node_ids, 3
        )
        assert serial.all_match
        parallel = run(spec, mini_spec, executor=pool)
        assert parallel == serial

    def test_deterministic_across_runs(self, big_topology):
        a = run(ShardedSpec(cells=5, iterations=2, seed=13), big_topology)
        b = run(ShardedSpec(cells=5, iterations=2, seed=13), big_topology)
        assert a == b

    def test_seed_changes_nothing_but_shares(self, big_topology):
        # Different campaign seeds redraw every dealer polynomial, but the
        # reconstructed aggregates are the same true sums.
        a = run(ShardedSpec(cells=4, iterations=2, seed=1), big_topology)
        b = run(ShardedSpec(cells=4, iterations=2, seed=2), big_topology)
        assert a.totals == b.totals


class TestPlanning:
    def test_units_partition_deterministically(self, big_topology):
        a = plan_cell_units(big_topology, 6, 4, 17)
        b = plan_cell_units(big_topology, 6, 4, 17)
        assert a == b
        covered = sorted(n for unit in a for n in unit.node_ids)
        assert covered == sorted(big_topology.node_ids)

    def test_cell_seeds_are_distinct(self, big_topology):
        units = plan_cell_units(big_topology, 6, 4, 17)
        assert len({unit.seed for unit in units}) == len(units)

    def test_units_are_picklable(self, big_topology, mini_spec):
        for unit in (
            plan_cell_units(big_topology, 4, 2, 3)[1],
            plan_cell_units(mini_spec, 2, 2, 3)[0],
        ):
            clone = pickle.loads(pickle.dumps(unit))
            assert clone.run() == unit.run()

    def test_rejects_bad_inputs(self, big_topology):
        with pytest.raises(ConfigurationError):
            plan_cell_units(big_topology, 4, 2, 1, metrics="dense")
        with pytest.raises(ConfigurationError):
            plan_cell_units(big_topology, 4, 0, 1)
        with pytest.raises(ConfigurationError):
            plan_cell_units(big_topology, 4, 2, 1, simulate=True)

    def test_cross_cell_degree_rule(self, big_topology):
        assert degree_for_cell(1) == 1
        assert degree_for_cell(4) == 1
        assert degree_for_cell(12) == 4
        cells = [unit.run() for unit in plan_cell_units(big_topology, 12, 1, 3)]
        assert cross_cell_aggregate(cells, 1, 3)[1] == 4


class TestStreamingMetrics:
    """RoundSummary ≡ summarised RoundMetrics, on the same seed."""

    def test_summary_equals_summarised_full(self, mini_spec):
        spec = ShardedSpec(cells=2, iterations=3, seed=7)
        full = run(spec, mini_spec, metrics="full")
        summary = run(spec, mini_spec, metrics="summary")
        for cell_full, cell_summary in zip(full.cells, summary.cells):
            assert all(
                isinstance(r, RoundMetrics) for r in cell_full.rounds
            )
            assert all(
                isinstance(r, RoundSummary) for r in cell_summary.rounds
            )
            assert tuple(
                RoundSummary.from_metrics(r) for r in cell_full.rounds
            ) == tuple(cell_summary.rounds)
            assert cell_summary.sums == cell_full.sums
        assert summary.totals == full.totals

    def test_summarize_rounds_accepts_either_form(self, mini_spec):
        full = run(ShardedSpec(cells=2, iterations=3, seed=7), mini_spec, metrics="full")
        rounds = list(full.cells[0].rounds)
        summaries = [RoundSummary.from_metrics(r) for r in rounds]
        fold = _metrics_of_rounds(rounds, "S4", 9)
        assert _metrics_of_rounds(summaries, "S4", 9) == fold
        # Mixed streams are legal too: the shared API answers identically.
        mixed = [rounds[0], *summaries[1:]]
        assert _metrics_of_rounds(mixed, "S4", 9) == fold

    def test_figure1_summary_mode_identical(self, mini_spec):
        spec = Figure1Spec(testbed="mini-shard", iterations=2, seed=1)
        full = run(spec, mini_spec, metrics="full")
        summary = run(spec, mini_spec, metrics="summary")
        assert summary == full

    def test_figure1_summary_mode_parallel(self, mini_spec, pool):
        spec = Figure1Spec(testbed="mini-shard", iterations=3, seed=1)
        serial = run(spec, mini_spec)
        parallel = run(spec, mini_spec, executor=pool)
        assert parallel == serial

    def test_summary_round_trip_properties(self, mini_spec):
        full = run(ShardedSpec(cells=2, iterations=2, seed=11), mini_spec, metrics="full")
        for metrics in full.cells[0].rounds:
            summary = RoundSummary.from_metrics(metrics)
            assert summary.success_fraction == metrics.success_fraction
            assert summary.all_correct == metrics.all_correct
            assert summary.has_latency == metrics.has_latency
            assert summary.mean_radio_on_us == metrics.mean_radio_on_us
            assert summary.sharing_duration_us == metrics.sharing_duration_us
            assert summary.reconstruction_duration_us == metrics.reconstruction_duration_us
            if metrics.has_latency:
                assert summary.max_latency_us == metrics.max_latency_us
                assert summary.mean_latency_us == metrics.mean_latency_us
