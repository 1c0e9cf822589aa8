"""Tests for the deterministic chaos layer (:mod:`repro.chaos`).

The acceptance criteria this module pins:

* losses of up to ``k - (⌊k/3⌋ + 1)`` cells per round reproduce the flat
  deployment's sums **bit-identically** (STUB and REAL crypto, serial and
  parallel);
* one loss beyond the bound yields a structured :class:`ChaosError`
  naming the round and cells — never a silently wrong answer;
* coded replicas recover crashed/straggling cells, bounded retry
  recovers killed workers, and neither changes a single reconstructed
  bit;
* fault plans are frozen, validated, JSON-round-trip-exact data.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import CampaignExecutor
from repro.analysis.sharding import flat_expected_sums
from repro.chaos import (
    FaultEvent,
    FaultPlan,
    _corruption_detected,
    run_chaos_campaign,
    survivable_losses,
)
from repro.core.config import CryptoMode
from repro.core.metrics import RoundSummary
from repro.errors import ChaosError, SpecError
from repro.scenarios import ChaosSpec, Session, ShardedSpec
from repro.topology.generators import grid
from repro.topology.testbeds import testbed_by_name as resolve_testbed

#: Deterministic chaos-heavy deployment: 48 nodes, enough for k=6 cells
#: (cross degree 2, threshold 3, survivable bound 3).
ITERS = 4


@pytest.fixture(scope="module")
def big_topology():
    return grid(8, 6, spacing_m=9.0, jitter_m=0.8, seed=21)


@pytest.fixture(scope="module")
def oracle(big_topology):
    return flat_expected_sums(big_topology.node_ids, ITERS)


@pytest.fixture(scope="module")
def pool():
    """One persistent 2-worker spawn pool for the whole module."""
    with CampaignExecutor(workers=2) as executor:
        executor.warm_up()
        yield executor


def corrupt_plan(cells, round_index=1):
    """Corrupt the listed cells' collector submissions for one round."""
    return FaultPlan(
        events=tuple(
            FaultEvent(kind="corrupt", cell=cell, round=round_index)
            for cell in cells
        )
    )


class TestFaultEvent:
    def test_round_trip_exact(self):
        event = FaultEvent(
            kind="straggle", cell=3, round=2, duration=2, kills=1
        )
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            FaultEvent(kind="meteor", cell=0)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(SpecError, match="cell"):
            FaultEvent(kind="crash", cell=-1)
        with pytest.raises(SpecError, match="round"):
            FaultEvent(kind="crash", cell=0, round=-1)
        with pytest.raises(SpecError, match="duration"):
            FaultEvent(kind="straggle", cell=0, duration=0)
        with pytest.raises(SpecError, match="kills"):
            FaultEvent(kind="kill_worker", cell=0, kills=0)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SpecError, match="integer"):
            FaultEvent(kind="crash", cell=True)

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="severity"):
            FaultEvent.from_dict({"kind": "crash", "cell": 0, "severity": 9})


class TestFaultPlan:
    def test_round_trip_exact(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", cell=1, round=2),
                FaultEvent(kind="kill_worker", cell=0, kills=3),
            )
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        # And through actual JSON text, as a spec file would carry it.
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_dict_events_coerced(self):
        plan = FaultPlan(events=({"kind": "corrupt", "cell": 2},))
        assert plan.events == (FaultEvent(kind="corrupt", cell=2),)

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="surprise"):
            FaultPlan.from_dict({"events": [], "surprise": 1})

    def test_validate_for_bounds(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", cell=5, round=3),))
        plan.validate_for(cells=6, iterations=4)
        with pytest.raises(SpecError, match="cell 5"):
            plan.validate_for(cells=5, iterations=4)
        with pytest.raises(SpecError, match="round 3"):
            plan.validate_for(cells=6, iterations=3)

    def test_sample_is_deterministic(self):
        a = FaultPlan.sample(9, cells=6, iterations=8)
        b = FaultPlan.sample(9, cells=6, iterations=8)
        assert a == b
        assert a != FaultPlan.sample(10, cells=6, iterations=8)

    def test_sample_targets_valid_distinct_cells(self):
        for cells in (4, 6, 8):
            plan = FaultPlan.sample(3, cells=cells, iterations=6)
            plan.validate_for(cells, 6)
            assert len({e.cell for e in plan.events}) == len(plan.events)

    def test_sample_rejects_empty_shapes(self):
        with pytest.raises(SpecError):
            FaultPlan.sample(1, cells=0, iterations=4)

    def test_sample_default_intensity_survivable(self):
        # The documented construction guarantee: crashes land on the
        # final round, stragglers return before it, down cells avoid
        # ring-adjacency — so defaults survive replication 2 at k >= 4.
        for seed in (1, 2, 3):
            for cells in (4, 6):
                topology = grid(
                    cells, 2, spacing_m=9.0, jitter_m=0.8, seed=60 + cells
                )
                result = run_chaos_campaign(
                    topology,
                    cells,
                    iterations=3,
                    seed=seed,
                    faults=FaultPlan.sample(seed, cells, 3),
                    replication=2,
                )
                assert result.all_match, (seed, cells)


class TestChaosSpec:
    def test_round_trip_with_faults(self):
        spec = ChaosSpec(
            cells=6,
            iterations=4,
            faults=FaultPlan(
                events=(FaultEvent(kind="crash", cell=1, round=1),)
            ),
        )
        assert ChaosSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_faults_accept_plain_mapping(self):
        spec = ChaosSpec.from_dict(
            {"faults": {"events": [{"kind": "corrupt", "cell": 0}]}}
        )
        assert spec.faults == FaultPlan(
            events=(FaultEvent(kind="corrupt", cell=0),)
        )

    def test_replication_bounded_by_cells(self):
        with pytest.raises(SpecError, match="replication"):
            ChaosSpec(cells=4, replication=5)

    def test_fault_plan_validated_against_shape(self):
        with pytest.raises(SpecError, match="cell 7"):
            ChaosSpec(
                cells=6,
                faults=FaultPlan(events=(FaultEvent(kind="crash", cell=7),)),
            )


class TestNoFaults:
    def test_matches_sharded_and_flat_oracle(self, big_topology, oracle):
        result = run_chaos_campaign(
            big_topology, cells=6, iterations=ITERS, seed=9
        )
        with Session(metrics="summary") as session:
            sharded = session.run(
                ShardedSpec(cells=6, iterations=ITERS, seed=9),
                deployment=big_topology,
            ).payload
        assert result.totals == sharded.totals == oracle
        assert result.expected == oracle
        assert result.all_match and result.exact_under_loss
        assert result.degraded == ()
        assert result.worker_retries == 0
        assert all(entry == () for entry in result.lost_points)
        assert all(entry == () for entry in result.recovered)

    def test_redundancy_overhead_tracks_replication(self, big_topology):
        result = run_chaos_campaign(
            big_topology, cells=6, iterations=2, seed=9, replication=3
        )
        assert result.units_run == 18
        assert result.redundancy_overhead == 3.0

    def test_summaries_fold_into_round_stream(self, big_topology):
        result = run_chaos_campaign(
            big_topology, cells=6, iterations=2, seed=9
        )
        assert len(result.summaries) == 2
        for summary in result.summaries:
            assert isinstance(summary, RoundSummary)
            assert summary.all_correct
            assert summary.lost_cells == 0
            assert summary.recovered_cells == 0
            assert summary.failure_count == 0


class TestLossBoundary:
    """k=6: degree 2, threshold 3 — up to 3 collector losses per round."""

    def test_exact_at_every_survivable_loss_count(self, big_topology, oracle):
        assert survivable_losses(6) == 3
        for cells in ((0,), (0, 3), (0, 2, 4)):
            result = run_chaos_campaign(
                big_topology,
                cells=6,
                iterations=ITERS,
                seed=9,
                faults=corrupt_plan(cells),
            )
            assert result.totals == oracle, f"lost cells {cells}"
            assert result.lost_points[1] == cells
            assert result.all_match

    def test_at_threshold_bit_identical_to_no_loss(self, big_topology):
        clean = run_chaos_campaign(
            big_topology, cells=6, iterations=ITERS, seed=9
        )
        at_bound = run_chaos_campaign(
            big_topology,
            cells=6,
            iterations=ITERS,
            seed=9,
            faults=corrupt_plan((0, 2, 4)),
        )
        # Reconstruction from the 3 surviving points is not merely equal
        # in value: it is the identical integer tuple, every round.
        assert at_bound.totals == clean.totals
        assert at_bound.expected == clean.expected

    def test_one_past_threshold_is_structured_error(self, big_topology):
        with pytest.raises(ChaosError) as excinfo:
            run_chaos_campaign(
                big_topology,
                cells=6,
                iterations=ITERS,
                seed=9,
                faults=corrupt_plan((0, 1, 2, 4)),
            )
        message = str(excinfo.value)
        assert "round 1" in message
        assert "[0, 1, 2, 4]" in message
        assert "survivable bound of 3" in message

    def test_degraded_mode_yields_none_never_wrong(self, big_topology, oracle):
        result = run_chaos_campaign(
            big_topology,
            cells=6,
            iterations=ITERS,
            seed=9,
            faults=corrupt_plan((0, 1, 2, 4)),
            strict=False,
        )
        assert result.totals[1] is None
        for r in (0, 2, 3):
            assert result.totals[r] == oracle[r]
        assert result.exact_under_loss and not result.all_match
        (degraded,) = result.degraded
        assert degraded.round == 1
        assert degraded.lost_cells == (0, 1, 2, 4)
        assert degraded.surviving_points == 2
        assert degraded.needed_points == 3
        summary = result.summaries[1]
        assert not summary.all_correct
        assert summary.aggregate is None
        assert summary.completed_count == 2
        assert summary.lost_cells == 4

    def test_summaries_record_losses_and_recoveries(self, big_topology):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="straggle", cell=2, round=1, duration=1),
                FaultEvent(kind="corrupt", cell=4, round=1),
            )
        )
        result = run_chaos_campaign(
            big_topology, cells=6, iterations=3, seed=9, faults=plan
        )
        assert result.summaries[1].lost_cells == 2
        assert result.summaries[1].recovered_cells == 1
        assert result.summaries[1].failure_count == 2
        assert result.summaries[0].lost_cells == 0
        assert result.summaries[2].lost_cells == 0


class TestBoundaryProperty:
    """Sweep k and loss counts: the bound is exact in both directions."""

    _topologies: dict[int, object] = {}

    @classmethod
    def _topology(cls, k):
        if k not in cls._topologies:
            cls._topologies[k] = grid(
                k, 2, spacing_m=9.0, jitter_m=0.8, seed=100 + k
            )
        return cls._topologies[k]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bound_is_sharp(self, data):
        k = data.draw(st.integers(min_value=2, max_value=9), label="cells")
        losses = data.draw(st.integers(min_value=0, max_value=k), label="losses")
        topology = self._topology(k)
        plan = corrupt_plan(tuple(range(losses)), round_index=1)
        if losses <= survivable_losses(k):
            result = run_chaos_campaign(
                topology,
                cells=k,
                iterations=2,
                seed=5,
                faults=plan,
                replication=1,
            )
            assert result.totals == flat_expected_sums(topology.node_ids, 2)
        else:
            with pytest.raises(ChaosError, match="round 1"):
                run_chaos_campaign(
                    topology,
                    cells=k,
                    iterations=2,
                    seed=5,
                    faults=plan,
                    replication=1,
                )


class TestCodedRecovery:
    """Replicas on sibling hosts stand in for crashed/straggling cells."""

    def test_crash_recovered_by_replica(self, big_topology, oracle):
        plan = FaultPlan(events=(FaultEvent(kind="crash", cell=1, round=1),))
        result = run_chaos_campaign(
            big_topology, cells=6, iterations=ITERS, seed=9, faults=plan
        )
        assert result.totals == oracle
        assert result.recovered == ((), (1,), (1,), (1,))
        assert result.degraded == ()
        # The crashed cell still loses its collector point; the dealer
        # contribution is what the replica saved.
        assert result.lost_points == ((), (1,), (1,), (1,))

    def test_straggler_recovers_then_returns(self, big_topology, oracle):
        plan = FaultPlan(
            events=(FaultEvent(kind="straggle", cell=3, round=1, duration=2),)
        )
        result = run_chaos_campaign(
            big_topology, cells=6, iterations=ITERS, seed=9, faults=plan
        )
        assert result.totals == oracle
        assert result.recovered == ((), (3,), (3,), ())

    def test_adjacent_pair_defeats_replication_two(self, big_topology):
        # Cell 1's only replica is hosted on cell 2; both down at round 0
        # makes cell 1's contribution unrecoverable in every round.
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", cell=1, round=0),
                FaultEvent(kind="crash", cell=2, round=0),
            )
        )
        with pytest.raises(ChaosError, match="contribution unrecoverable"):
            run_chaos_campaign(
                big_topology, cells=6, iterations=2, seed=9, faults=plan
            )
        degraded = run_chaos_campaign(
            big_topology,
            cells=6,
            iterations=2,
            seed=9,
            faults=plan,
            strict=False,
        )
        assert degraded.totals == (None, None)
        assert degraded.exact_under_loss  # vacuously: no wrong values
        assert all(d.lost_cells == (1,) for d in degraded.degraded)

    def test_replication_three_survives_adjacent_pair(
        self, big_topology, oracle
    ):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", cell=1, round=0),
                FaultEvent(kind="crash", cell=2, round=0),
            )
        )
        result = run_chaos_campaign(
            big_topology,
            cells=6,
            iterations=ITERS,
            seed=9,
            faults=plan,
            replication=3,
        )
        assert result.totals == oracle
        assert result.recovered[0] == (1, 2)

    def test_replication_validated(self, big_topology):
        with pytest.raises(SpecError, match="replication"):
            run_chaos_campaign(
                big_topology, cells=6, iterations=2, seed=9, replication=7
            )


class TestCorruptionDetection:
    def test_mac_detects_injected_tampering(self):
        for cell, round_index, value in ((0, 0, 12345), (3, 2, 2**90 + 7)):
            assert _corruption_detected(9, cell, round_index, value)

    def test_corrupt_only_costs_the_collector_point(self, big_topology, oracle):
        # Unlike a crash, a corrupted submission needs no replica: the
        # cell's dealer contribution is intact, so nothing is "recovered".
        result = run_chaos_campaign(
            big_topology,
            cells=6,
            iterations=ITERS,
            seed=9,
            faults=corrupt_plan((2,)),
            replication=1,
        )
        assert result.totals == oracle
        assert result.recovered == ((), (), (), ())
        assert result.lost_points[1] == (2,)


class TestKillRetry:
    def test_serial_kill_retried_bit_identically(self, big_topology, oracle):
        plan = FaultPlan(
            events=(FaultEvent(kind="kill_worker", cell=0, kills=2),)
        )
        result = run_chaos_campaign(
            big_topology, cells=6, iterations=ITERS, seed=9, faults=plan
        )
        assert result.totals == oracle
        assert result.worker_retries == 2
        assert result.degraded == ()

    def test_kills_beyond_attempts_fail_structurally(self, big_topology):
        plan = FaultPlan(
            events=(FaultEvent(kind="kill_worker", cell=0, kills=5),)
        )
        with pytest.raises(ChaosError):
            run_chaos_campaign(
                big_topology,
                cells=6,
                iterations=2,
                seed=9,
                faults=plan,
                max_attempts=3,
            )


class TestSerialParallelIdentity:
    def test_mixed_plan_identical_over_workers(self, big_topology, pool):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="corrupt", cell=0, round=0),
                FaultEvent(kind="crash", cell=2, round=1),
                # Cell 5, not 3: cell 2's sole replica is hosted on cell
                # 3, and a straggle there would strand the crashed cell.
                FaultEvent(kind="straggle", cell=5, round=2, duration=1),
                FaultEvent(kind="kill_worker", cell=4, kills=1),
            )
        )
        serial = run_chaos_campaign(
            big_topology, cells=6, iterations=ITERS, seed=9, faults=plan
        )
        parallel = run_chaos_campaign(
            big_topology,
            cells=6,
            iterations=ITERS,
            seed=9,
            faults=plan,
            executor=pool,
        )
        # A hard kill breaks the whole pool and resubmits every pending
        # unit, so the retry *count* legitimately differs — every value
        # must not.
        assert dataclasses.replace(
            parallel, worker_retries=serial.worker_retries
        ) == serial
        assert serial.all_match

    def test_past_threshold_raises_identically(self, big_topology, pool):
        plan = corrupt_plan((0, 1, 2, 4))
        for executor in (None, pool):
            with pytest.raises(ChaosError, match="round 1"):
                run_chaos_campaign(
                    big_topology,
                    cells=6,
                    iterations=2,
                    seed=9,
                    faults=plan,
                    executor=executor,
                )


class TestEngineCells:
    """Chaos over full-engine cells, STUB and REAL crypto."""

    @pytest.fixture(scope="class")
    def flocklab(self):
        return resolve_testbed("flocklab")

    @pytest.fixture(scope="class")
    def flocklab_plan(self):
        return FaultPlan(
            events=(
                FaultEvent(kind="corrupt", cell=1, round=0),
                FaultEvent(kind="crash", cell=2, round=1),
                FaultEvent(kind="kill_worker", cell=0, kills=1),
            )
        )

    @pytest.mark.parametrize("mode", [CryptoMode.STUB, CryptoMode.REAL])
    def test_exact_under_loss(self, flocklab, flocklab_plan, mode):
        result = run_chaos_campaign(
            flocklab,
            cells=4,
            iterations=2,
            seed=1,
            faults=flocklab_plan,
            crypto_mode=mode,
        )
        assert result.totals == result.expected
        assert result.totals == flat_expected_sums(
            flocklab.topology.node_ids, 2
        )
        assert result.worker_retries == 1
        assert result.recovered[1] == (2,)
