"""Tests for the parallel campaign engine.

The load-bearing property is the acceptance criterion: a campaign fanned
out over spawn workers returns results **bit-identical** to the serial
path for the same seeds.  One module-scoped 2-worker pool is shared by
every parallel assertion so the suite pays spawn start-up once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import fastpath
from repro.analysis import campaign
from repro.analysis.campaign import (
    CampaignExecutor,
    CoverageUnit,
    DegreeUnit,
    Figure1Unit,
    WorkerState,
    plan_figure1_units,
    resolve_workers,
)
from repro.core.config import CryptoMode
from repro.errors import ConfigurationError
from repro.phy.channel import ChannelParameters
from repro.scenarios import CoverageSpec, DegreeSweepSpec, Figure1Spec, Session
from repro.topology.generators import grid
from repro.topology.testbeds import TestbedSpec as BedSpec


@pytest.fixture(scope="module")
def mini_spec():
    topology = grid(3, 3, spacing_m=7.0, jitter_m=0.5, seed=4)
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
        name="mini-par",
        extras={"s4_sharing_ntx": 4, "s4_redundancy": 1},
    )


@pytest.fixture(scope="module")
def pool():
    """One persistent 2-worker spawn pool for the whole module."""
    with CampaignExecutor(workers=2) as executor:
        executor.warm_up()
        yield executor


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ConfigurationError):
            resolve_workers(None)
        with pytest.raises(ConfigurationError):
            resolve_workers(0)


class TestPlanning:
    def test_serial_plan_one_unit_per_point_variant(self, mini_spec):
        units = plan_figure1_units(
            mini_spec, (4, 9), 6, 1, CryptoMode.STUB, workers=1
        )
        assert len(units) == 4  # 2 sizes x 2 variants
        assert all(unit.count == 6 and unit.start == 0 for unit in units)

    def test_parallel_plan_chunks_cover_iterations(self, mini_spec):
        units = plan_figure1_units(
            mini_spec, (4, 9), 7, 1, CryptoMode.STUB, workers=3
        )
        for size in (4, 9):
            for variant in ("s3", "s4"):
                chunks = [
                    (unit.start, unit.count)
                    for unit in units
                    if unit.size == size and unit.variant == variant
                ]
                covered = sorted(
                    i for start, count in chunks for i in range(start, start + count)
                )
                assert covered == list(range(7))

    def test_plan_is_deterministic(self, mini_spec):
        a = plan_figure1_units(mini_spec, (4,), 5, 1, CryptoMode.STUB, workers=2)
        b = plan_figure1_units(mini_spec, (4,), 5, 1, CryptoMode.STUB, workers=2)
        assert a == b

    def test_plan_rejects_unknown_metrics_mode(self, mini_spec):
        with pytest.raises(ConfigurationError):
            plan_figure1_units(
                mini_spec, (4,), 2, 1, CryptoMode.STUB, workers=1, metrics="dense"
            )

    def test_plan_schedules_longest_first(self, mini_spec):
        # The straggler fix: the big sweep point's expensive S3 chunks
        # must lead the queue, costed as chain length x iterations.
        units = plan_figure1_units(
            mini_spec, (4, 9), 7, 1, CryptoMode.STUB, workers=3
        )
        costs = [campaign.unit_cost(unit) for unit in units]
        assert costs == sorted(costs, reverse=True)
        assert units[0].size == 9 and units[0].variant == "s3"

    def test_plan_keeps_chunks_in_iteration_order(self, mini_spec):
        # Longest-first must not scramble a point's chunk order: the
        # merged round stream relies on ascending starts per point.
        units = plan_figure1_units(
            mini_spec, (4, 9), 7, 1, CryptoMode.STUB, workers=3
        )
        for size in (4, 9):
            for variant in ("s3", "s4"):
                starts = [
                    unit.start
                    for unit in units
                    if unit.size == size and unit.variant == variant
                ]
                assert starts == sorted(starts)


class TestWorkerState:
    def test_snapshot_matches_runtime(self):
        state = campaign.current_worker_state()
        assert state.fastpath_enabled == fastpath.enabled()

    def test_apply_round_trip(self):
        from repro import diskcache

        original = campaign.current_worker_state()
        try:
            campaign.apply_worker_state(
                WorkerState(
                    fastpath_enabled=False,
                    disk_cache_enabled=False,
                    cache_dir=original.cache_dir,
                )
            )
            assert not fastpath.enabled()
            assert not diskcache.enabled()
        finally:
            # apply_worker_state pins runtime overrides (it targets fresh
            # workers); in the parent, drop them back to env-driven.
            fastpath.set_enabled(original.fastpath_enabled)
            diskcache.set_enabled(None)
            diskcache.set_cache_dir(None)
        assert fastpath.enabled() == original.fastpath_enabled

    def test_worker_state_is_complete(self):
        # Every runtime switch a spawn worker needs must live here; this
        # breaks loudly if a field is added without replay coverage.
        fields = {f.name for f in dataclasses.fields(WorkerState)}
        assert fields == {"fastpath_enabled", "disk_cache_enabled", "cache_dir"}


def run(spec, deployment, executor=None):
    """One scenario run, serial or on an injected executor; the payload."""
    with Session(executor=executor) as session:
        return session.run(spec, deployment=deployment).payload


class TestSerialParallelIdentity:
    """The acceptance criterion: parallel ≡ serial, bit for bit."""

    def test_figure1(self, mini_spec, pool):
        spec = Figure1Spec(testbed="mini-par", iterations=3, seed=1)
        serial = run(spec, mini_spec)
        parallel = run(spec, mini_spec, executor=pool)
        assert parallel == serial

    def test_figure1_chunking_invariant_serially(self, mini_spec):
        # Chunked units merged in order == one whole-range unit, even
        # without a pool: the decomposition itself must be lossless.
        whole = Figure1Unit(mini_spec, 9, "s4", CryptoMode.STUB, 0, 4, 11).run()
        split = (
            Figure1Unit(mini_spec, 9, "s4", CryptoMode.STUB, 0, 1, 11).run()
            + Figure1Unit(mini_spec, 9, "s4", CryptoMode.STUB, 1, 3, 11).run()
        )
        assert whole == split

    def test_coverage_curve(self, mini_spec, pool):
        spec = CoverageSpec(testbed="mini-par", ntx_values=(2, 4), iterations=3)
        serial = run(spec, mini_spec)
        parallel = run(spec, mini_spec, executor=pool)
        assert parallel == serial

    def test_degree_sweep(self, mini_spec, pool):
        spec = DegreeSweepSpec(testbed="mini-par", iterations=2)
        serial = run(spec, mini_spec)
        parallel = run(spec, mini_spec, executor=pool)
        assert parallel == serial

    def test_executor_reusable_across_campaigns(self, mini_spec, pool):
        spec = Figure1Spec(testbed="mini-par", iterations=2, seed=3)
        first = run(spec, mini_spec, executor=pool)
        second = run(spec, mini_spec, executor=pool)
        assert first == second


class TestUnits:
    def test_units_are_picklable(self, mini_spec):
        # Topology has no value-equality, so compare behaviour: the
        # pickled clone must produce the exact result of the original.
        import pickle

        for unit in (
            Figure1Unit(mini_spec, 4, "s3", CryptoMode.STUB, 0, 2, 1),
            CoverageUnit(mini_spec, 4, 3, 3),
            DegreeUnit(mini_spec, 2, 2, 5, CryptoMode.STUB),
        ):
            clone = pickle.loads(pickle.dumps(unit))
            assert clone.run() == unit.run()

    def test_serial_executor_runs_inline(self, mini_spec):
        executor = CampaignExecutor(workers=1)
        results = executor.run_units(
            [CoverageUnit(mini_spec, 4, 2, 3), CoverageUnit(mini_spec, 2, 2, 3)]
        )
        assert results[0]["ntx"] == 4.0 and results[1]["ntx"] == 2.0
        assert executor._pool is None  # never started a pool


class FlakyUnit(campaign.CampaignUnit):
    """Deterministically fails its first ``fail_attempts`` attempts.

    Failure is a pure function of the attempt index, so retries behave
    identically serial and parallel (and across resubmissions).
    """

    def __init__(self, tag: str, fail_attempts: int):
        self.tag = tag
        self.fail_attempts = fail_attempts

    def run(self):
        return self.run_attempt(0)

    def run_attempt(self, attempt: int):
        if attempt < self.fail_attempts:
            raise RuntimeError(f"flaky unit {self.tag}: attempt {attempt} dies")
        return (self.tag, attempt)


class TestBoundedRetry:
    """The executor's bounded retry-with-backoff (chaos satellite)."""

    def test_serial_retry_recovers_flaky_unit(self):
        executor = CampaignExecutor(workers=1, max_attempts=3)
        results = executor.run_units([FlakyUnit("a", 2), FlakyUnit("b", 0)])
        assert results == [("a", 2), ("b", 0)]
        assert executor.retry_count == 2

    def test_default_is_single_attempt(self):
        executor = CampaignExecutor(workers=1)
        with pytest.raises(RuntimeError, match="attempt 0"):
            executor.run_units([FlakyUnit("a", 1)])
        assert executor.retry_count == 0

    def test_exhausted_attempts_raise_last_error(self):
        executor = CampaignExecutor(workers=1, max_attempts=2)
        with pytest.raises(RuntimeError, match="attempt 1"):
            executor.run_units([FlakyUnit("a", 2)])
        assert executor.retry_count == 1

    def test_run_units_overrides_executor_default(self):
        executor = CampaignExecutor(workers=1)
        results = executor.run_units([FlakyUnit("a", 1)], max_attempts=2)
        assert results == [("a", 1)]

    def test_backoff_uses_decorrelated_jitter(self, monkeypatch):
        import random

        delays: list[float] = []
        monkeypatch.setattr(campaign.time, "sleep", delays.append)
        executor = CampaignExecutor(
            workers=1, max_attempts=4, backoff_base_s=0.5, max_backoff_s=1.5
        )
        executor.backoff_rng = random.Random(42)
        executor.run_units([FlakyUnit("a", 3)])
        # Same recipe, same seed: min(cap, uniform(base, max(base, prev*3))).
        oracle_rng = random.Random(42)
        expected, prev = [], 0.0
        for _ in range(3):
            prev = min(1.5, oracle_rng.uniform(0.5, max(0.5, prev * 3.0)))
            expected.append(prev)
        assert delays == expected
        assert all(0.5 <= d <= 1.5 for d in delays)

    def test_backoff_caps_at_max_backoff_s(self):
        import random

        rng = random.Random(7)
        delay = 0.0
        for _ in range(50):
            delay = campaign._backoff_delay(0.5, 1.25, delay, rng)
            assert 0.5 <= delay <= 1.25

    def test_backoff_retries_stay_bit_identical(self, monkeypatch):
        monkeypatch.setattr(campaign.time, "sleep", lambda _: None)
        executor = CampaignExecutor(
            workers=1, max_attempts=3, backoff_base_s=0.5
        )
        flaky = executor.run_units([FlakyUnit("a", 2)])
        clean = CampaignExecutor(workers=1).run_units([FlakyUnit("a", 0)])
        # The retried unit returns the same value a first-try run would
        # (modulo the attempt counter the stub reports).
        assert flaky[0][0] == clean[0][0]

    def test_max_backoff_must_cover_base(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(workers=1, backoff_base_s=1.0, max_backoff_s=0.5)

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        def no_sleep(_):
            raise AssertionError("backoff 0 must not sleep")

        monkeypatch.setattr(campaign.time, "sleep", no_sleep)
        executor = CampaignExecutor(
            workers=1, max_attempts=3, backoff_base_s=0.0
        )
        assert executor.run_units([FlakyUnit("a", 2)]) == [("a", 2)]

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(workers=1, max_attempts=0)
        with pytest.raises(ConfigurationError):
            CampaignExecutor(workers=1, backoff_base_s=-0.1)

    def test_parallel_soft_failure_retries_without_pool_rebuild(self, pool):
        units = [FlakyUnit("a", 1), FlakyUnit("b", 0), FlakyUnit("c", 2)]
        before = pool._pool
        results = pool.run_units(units, max_attempts=3)
        assert results == [("a", 1), ("b", 0), ("c", 2)]
        # A pickled exception travels back over a healthy pool: no rebuild.
        assert pool._pool is before

    def test_parallel_hard_kill_rebuilds_pool_bit_identically(self, pool):
        from repro.analysis.sharding import plan_cell_units
        from repro.chaos import ChaosCellUnit

        topology = grid(4, 3, spacing_m=9.0, jitter_m=0.8, seed=21)
        base = plan_cell_units(topology, 2, 2, seed=7)
        oracle = [unit.run() for unit in base]
        units = [
            ChaosCellUnit(base=unit, kills=1 if unit.index == 0 else 0)
            for unit in base
        ]
        before = pool._pool
        retries_before = pool.retry_count
        results = pool.run_units(units, max_attempts=3)
        # os._exit broke the pool; the executor rebuilt it and re-ran the
        # seeded units, so the values are exactly the no-fault ones.
        assert results == oracle
        assert pool._pool is not before
        assert pool.retry_count > retries_before

    def test_retries_exhausted_by_kills_surface_structurally(self):
        from repro.analysis.sharding import plan_cell_units
        from repro.chaos import ChaosCellUnit, InjectedWorkerKill

        topology = grid(4, 3, spacing_m=9.0, jitter_m=0.8, seed=21)
        (unit, _) = plan_cell_units(topology, 2, 2, seed=7)
        executor = CampaignExecutor(workers=1, max_attempts=2)
        with pytest.raises(InjectedWorkerKill):
            executor.run_units([ChaosCellUnit(base=unit, kills=2)])
