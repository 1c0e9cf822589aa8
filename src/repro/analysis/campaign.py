"""Parallel campaign execution: seeded work units over worker processes.

The paper's campaigns repeat every sweep point thousands of times; our
reproduction's sweeps (the ``figure1``, ``coverage`` and ``degrees``
scenarios) decompose naturally into **independent seeded work units** —
``(spec, size, variant, iteration chunk, seed)`` and friends — because
every round's randomness is derived from the *absolute* iteration index
via :func:`repro.sim.seeds.iteration_seeds`.  Chunking therefore cannot
change results: a campaign fanned out over a ``ProcessPoolExecutor``
merges back bit-identical to the serial loop.

Execution model:

* :class:`CampaignExecutor` owns an optional worker pool.  With
  ``workers <= 1`` (the default when ``REPRO_WORKERS`` is unset — what
  the test suite uses) units run serially in-process, in order.
* With ``workers = N`` a ``spawn``-context pool runs units concurrently;
  ``spawn`` is deliberate — workers must not inherit forked module state
  (see the spawn-worker contract in :mod:`repro.fastpath`).  The parent's
  *runtime* fast-path / disk-cache state is captured in a
  :class:`WorkerState` and replayed by the pool initializer, because env
  vars are inherited but runtime overrides are not.
* Worker warm-up is cheap when the persisted commissioning cache is
  populated: a worker's first unit loads link tables, bootstrap
  schedules and codec key schedules from :mod:`repro.diskcache` instead
  of re-running the reference bootstrap loop.

Results come back in unit order (``ProcessPoolExecutor.map`` semantics),
so merging is a deterministic regroup — no reordering, no racing.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro import diskcache, fastpath
from repro.core.config import CryptoMode
from repro.core.metrics import METRICS_MODES, RoundSummary
from repro.errors import ConfigurationError
from repro.topology.testbeds import TestbedSpec

#: Environment knob consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Effective worker count: explicit argument > ``REPRO_WORKERS`` > 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


# -- worker process state ------------------------------------------------------


@dataclass(frozen=True)
class WorkerState:
    """The parent's runtime switches, replayed in every spawn worker."""

    fastpath_enabled: bool
    disk_cache_enabled: bool
    cache_dir: str


def current_worker_state() -> WorkerState:
    """Snapshot the state a worker must reproduce."""
    return WorkerState(
        fastpath_enabled=fastpath.enabled(),
        disk_cache_enabled=diskcache.enabled(),
        cache_dir=str(diskcache.cache_dir()),
    )


def apply_worker_state(state: WorkerState) -> None:
    """Pool initializer body: align a fresh worker with its parent."""
    fastpath.set_enabled(state.fastpath_enabled)
    diskcache.set_enabled(state.disk_cache_enabled)
    diskcache.set_cache_dir(state.cache_dir)


def _backoff_delay(
    base_s: float, cap_s: float, prev_s: float, rng: random.Random
) -> float:
    """Decorrelated-jitter retry delay (capped; 0 when backoff is off).

    The recipe is ``min(cap, uniform(base, prev * 3))``: each delay is
    drawn relative to the *previous* delay rather than the attempt
    number, so a burst of failing units spreads its retries out instead
    of thundering back in exponential lockstep.  Sleep timing is the
    only thing randomised here — unit results are seeded and stay
    bit-identical however long the retries wait.
    """
    if base_s <= 0:
        return 0.0
    return min(cap_s, rng.uniform(base_s, max(base_s, prev_s * 3.0)))


def _warm_worker(_: int) -> bool:
    """No-op unit that forces the heavy experiment imports in a worker."""
    import repro.analysis.experiments  # noqa: F401

    return True


def _run_unit(unit: "CampaignUnit"):
    return unit.run()


def _run_unit_attempt(payload: "tuple[CampaignUnit, int]"):
    unit, attempt = payload
    return unit.run_attempt(attempt)


# -- work units ----------------------------------------------------------------


class CampaignUnit:
    """Interface marker: a picklable, independently runnable work item."""

    def run(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def run_attempt(self, attempt: int):
        """Attempt-aware entry point used by the retrying executor.

        ``attempt`` counts from 0.  Seeded units derive their randomness
        from the unit's own fields, never from the attempt number, so a
        retried unit is bit-identical to a first run.  Fault-injecting
        units (:mod:`repro.chaos`) override this to fail deliberately on
        early attempts.
        """
        del attempt
        return self.run()


@dataclass(frozen=True)
class Figure1Unit(CampaignUnit):
    """One iteration chunk of one (size, variant) Fig. 1 sweep point.

    ``start``/``count`` select absolute iteration indices, so per-round
    secrets and seeds are chunk-invariant (``iteration_seeds``): however
    a campaign is sliced, round *i* of a sweep point is always the same
    round.

    ``metrics="summary"`` reduces each round to a streaming
    :class:`~repro.core.metrics.RoundSummary` *inside the worker*, so the
    IPC payload per round is a fixed handful of scalars instead of the
    dense per-node mapping — the flat-wire contract sharded campaigns
    rely on.  The experiment harness accepts either form.
    """

    spec: TestbedSpec
    size: int
    variant: str  # "s3" | "s4"
    crypto_mode: CryptoMode
    start: int
    count: int
    seed: int
    metrics: str = "full"  # "full" | "summary"

    def run(self) -> list:
        from repro.analysis.experiments import (
            build_engines,
            degree_for,
            run_rounds,
            subnetwork_spec,
        )

        sub = subnetwork_spec(self.spec, self.size)
        s3, s4 = build_engines(
            sub, crypto_mode=self.crypto_mode, degree=degree_for(self.size)
        )
        engine = s3 if self.variant == "s3" else s4
        rounds = run_rounds(
            engine,
            sub.topology.node_ids,
            self.count,
            self.seed,
            start=self.start,
        )
        if self.metrics == "summary":
            return [RoundSummary.from_metrics(metrics) for metrics in rounds]
        return rounds


@dataclass(frozen=True)
class CoverageUnit(CampaignUnit):
    """One NTX point of the coverage curve (probe rounds are per-NTX seeded).

    ``prebuilt_links`` lets a serial caller share one link table across
    every point of a curve: on the reference path there is no process
    pool (and no disk cache) to deduplicate tables, and rebuilding the
    O(n²) table per NTX would regress the old single-profile sweep.  It
    is only set for in-process execution — a parallel worker builds or
    disk-loads its own — and, as a ``compare=False`` field, it never
    affects unit identity.
    """

    spec: TestbedSpec
    ntx: int
    iterations: int
    seed: int
    prebuilt_links: object | None = dataclasses.field(default=None, compare=False)

    def run(self) -> dict[str, float]:
        from repro.core.bootstrap import network_depth
        from repro.ct.coverage import profile_coverage
        from repro.ct.packet import sharing_psdu_bytes
        from repro.phy.channel import ChannelModel
        from repro.phy.link import cached_link_table
        from repro.phy.radio import NRF52840_154

        links = self.prebuilt_links
        if links is None:
            channel = ChannelModel(self.spec.channel)
            frame = 6 + sharing_psdu_bytes()
            links = cached_link_table(
                self.spec.topology.positions, channel, frame
            )
        disk_key = None
        if fastpath.enabled() and diskcache.enabled():
            disk_key = diskcache.content_key(
                "coverage-row",
                links.content_digest(),
                NRF52840_154,
                self.ntx,
                self.iterations,
                self.seed,
            )
            stored = diskcache.load("coverage-row", disk_key)
            if isinstance(stored, dict):
                return stored
        stats = profile_coverage(
            links,
            NRF52840_154,
            ntx_values=[self.ntx],
            depth_hint=network_depth(links),
            iterations=self.iterations,
            seed=self.seed,
        ).at(self.ntx)
        row = {
            "ntx": float(self.ntx),
            "mean_reachable": stats.mean_reachable,
            "mean_delivery": stats.mean_delivery,
            "full_coverage_fraction": stats.full_coverage_fraction,
        }
        if disk_key is not None:
            diskcache.store("coverage-row", disk_key, row)
        return row


@dataclass(frozen=True)
class DegreeUnit(CampaignUnit):
    """One polynomial degree of the S4 degree sweep."""

    spec: TestbedSpec
    degree: int
    iterations: int
    seed: int
    crypto_mode: CryptoMode

    def run(self) -> dict[str, float]:
        from repro.analysis.experiments import build_engines, round_figures_ms, run_rounds
        from repro.analysis.stats import summarize
        from repro.sim.seeds import child_seed

        _, s4 = build_engines(
            self.spec, crypto_mode=self.crypto_mode, degree=self.degree
        )
        rounds = run_rounds(
            s4,
            self.spec.topology.node_ids,
            self.iterations,
            child_seed(self.seed, self.degree),
        )
        latencies, radio = round_figures_ms(rounds)
        return {
            "degree": float(self.degree),
            "latency_ms": summarize(latencies).mean if latencies else float("nan"),
            "radio_ms": summarize(radio).mean,
            "success": sum(r.success_fraction for r in rounds) / len(rounds),
            "chain_length": float(rounds[0].chain_length_sharing),
        }


def unit_cost(unit: Figure1Unit) -> int:
    """Cost-model one Fig. 1 unit: sharing-chain length × iterations.

    S3 relays every share through every node (chain ∝ n·s); S4 routes
    shares to its ``degree + 1 + redundancy`` collectors only (chain ∝
    m·s).  The absolute scale is irrelevant — only the *ordering* feeds
    the longest-first schedule — so the model ignores per-slot constants.
    """
    from repro.analysis.experiments import degree_for

    if unit.variant == "s3":
        chain = unit.size * unit.size
    else:
        redundancy = unit.spec.extras.get("s4_redundancy", 1)
        chain = unit.size * (degree_for(unit.size) + 1 + redundancy)
    return chain * unit.count


def plan_figure1_units(
    spec: TestbedSpec,
    sizes: Sequence[int],
    iterations: int,
    seed: int,
    crypto_mode: CryptoMode,
    workers: int,
    metrics: str = "full",
) -> list[Figure1Unit]:
    """Decompose a Fig. 1 sweep into chunked (size, variant) units.

    Serial execution keeps one unit per (size, variant); parallel
    execution splits each point's iterations into ~``workers`` chunks so
    the pool has enough units to balance.  Units are scheduled
    **longest-first** under :func:`unit_cost`, so the big sweep points
    (n=45 D-Cube) start immediately instead of straggling behind a queue
    of cheap ones.  Neither chunking nor ordering affects results — the
    executor returns results in unit order and the caller regroups by
    (size, variant), with chunks of one point kept in ascending ``start``
    order by the cost tie-break.
    """
    if metrics not in METRICS_MODES:
        raise ConfigurationError(
            f"metrics must be one of {METRICS_MODES}, got {metrics!r}"
        )
    chunk = iterations if workers <= 1 else max(1, -(-iterations // workers))
    units: list[Figure1Unit] = []
    for size in sizes:
        for variant in ("s3", "s4"):
            start = 0
            while start < iterations:
                count = min(chunk, iterations - start)
                units.append(
                    Figure1Unit(
                        spec=spec,
                        size=size,
                        variant=variant,
                        crypto_mode=crypto_mode,
                        start=start,
                        count=count,
                        seed=seed,
                        metrics=metrics,
                    )
                )
                start += count
    # Equal-cost ties (the full-size chunks of one point) fall back to
    # (size, variant, start), which keeps each point's chunks in
    # ascending iteration order; a point's short tail chunk costs less
    # and lands after its full chunks, so merged streams stay ordered.
    units.sort(key=lambda u: (-unit_cost(u), u.size, u.variant, u.start))
    return units


# -- the executor --------------------------------------------------------------


class CampaignExecutor:
    """Runs campaign units — serially, or over a persistent worker pool.

    The pool is created lazily on the first parallel ``run_units`` call
    and reused until :meth:`close` (or context-manager exit), so a
    long-running analysis session pays worker start-up once across many
    sweeps.  Worker state is captured at pool creation; toggle
    :mod:`repro.fastpath` *before* creating the executor, not mid-flight.

    ``max_attempts > 1`` turns on bounded retry: a unit whose attempt
    raises (or whose worker process dies, breaking the pool) is re-run —
    after a decorrelated-jitter backoff drawn from ``backoff_base_s``
    and capped at ``max_backoff_s`` (see :func:`_backoff_delay`) — up to
    ``max_attempts`` total attempts before the error propagates.  Because
    units are seeded, a retry is bit-identical to a first run; retry
    changes *whether* a result arrives (and how long it waited), never
    its value.  A hard-killed worker breaks the whole spawn pool, so the
    pool is rebuilt and every in-flight unit is resubmitted (each such
    resubmission consumes one of that unit's attempts).  ``retry_count``
    accumulates the retries performed over the executor's lifetime.
    """

    def __init__(
        self,
        workers: int | None = None,
        max_attempts: int = 1,
        backoff_base_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ):
        self.workers = resolve_workers(workers)
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if backoff_base_s < 0:
            raise ConfigurationError(
                f"backoff_base_s must be >= 0, got {backoff_base_s}"
            )
        if max_backoff_s < backoff_base_s:
            raise ConfigurationError(
                f"max_backoff_s must be >= backoff_base_s "
                f"({backoff_base_s}), got {max_backoff_s}"
            )
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.max_backoff_s = max_backoff_s
        self.retry_count = 0
        #: Jitter source for retry *timing* only; tests may reseed it to
        #: pin delay sequences.  Results never depend on it.
        self.backoff_rng = random.Random()
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            # Spawn workers re-import the library from scratch, but the
            # spawn preparation data carries the parent's sys.path, so a
            # bare source checkout (PYTHONPATH=src) works without any
            # environment surgery here.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=apply_worker_state,
                initargs=(current_worker_state(),),
            )
        return self._pool

    def run_units(
        self,
        units: Sequence[CampaignUnit],
        max_attempts: int | None = None,
        backoff_base_s: float | None = None,
        max_backoff_s: float | None = None,
    ) -> list:
        """Execute units, returning their results in unit order.

        ``max_attempts`` / ``backoff_base_s`` / ``max_backoff_s``
        override the executor-wide retry policy for this batch only.
        """
        attempts = self.max_attempts if max_attempts is None else max_attempts
        backoff = (
            self.backoff_base_s if backoff_base_s is None else backoff_base_s
        )
        cap = self.max_backoff_s if max_backoff_s is None else max_backoff_s
        if attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {attempts}"
            )
        if self.workers <= 1 or len(units) <= 1:
            return [
                self._run_serial(unit, attempts, backoff, cap)
                for unit in units
            ]
        if attempts <= 1:
            pool = self._ensure_pool()
            return list(pool.map(_run_unit, units, chunksize=1))
        return self._run_parallel(units, attempts, backoff, cap)

    def _sleep_before_retry(self, backoff: float, cap: float, prev: float) -> float:
        """Draw, sleep and return the next decorrelated-jitter delay."""
        delay = _backoff_delay(backoff, cap, prev, self.backoff_rng)
        if delay > 0:
            time.sleep(delay)
        return delay

    def _run_serial(
        self, unit: CampaignUnit, attempts: int, backoff: float, cap: float
    ):
        attempt = 0
        delay = 0.0
        while True:
            try:
                return unit.run_attempt(attempt)
            except Exception:
                attempt += 1
                if attempt >= attempts:
                    raise
                self.retry_count += 1
                delay = self._sleep_before_retry(backoff, cap, delay)

    def _run_parallel(
        self,
        units: Sequence[CampaignUnit],
        attempts: int,
        backoff: float,
        cap: float,
    ) -> list:
        pending = object()
        results: list = [pending] * len(units)
        attempt_of = [0] * len(units)
        delay_of = [0.0] * len(units)
        pool = self._ensure_pool()
        futures: dict[int, Future] = {
            index: pool.submit(_run_unit_attempt, (unit, 0))
            for index, unit in enumerate(units)
        }
        for index in range(len(units)):
            while True:
                try:
                    results[index] = futures[index].result()
                    break
                except BrokenExecutor:
                    # A worker died hard and took the spawn pool with it.
                    # Rebuild once and resubmit every unfinished unit;
                    # the pool cannot say which unit was the killer, so
                    # each resubmission consumes one attempt.
                    self._rebuild_pool()
                    pool = self._ensure_pool()
                    for later in range(index, len(units)):
                        if results[later] is not pending:
                            continue
                        attempt_of[later] += 1
                        if attempt_of[later] >= attempts:
                            raise
                        self.retry_count += 1
                        futures[later] = pool.submit(
                            _run_unit_attempt, (units[later], attempt_of[later])
                        )
                except Exception:
                    attempt_of[index] += 1
                    if attempt_of[index] >= attempts:
                        raise
                    self.retry_count += 1
                    delay_of[index] = self._sleep_before_retry(
                        backoff, cap, delay_of[index]
                    )
                    futures[index] = self._ensure_pool().submit(
                        _run_unit_attempt, (units[index], attempt_of[index])
                    )
        return results

    def _rebuild_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def warm_up(self) -> None:
        """Pay worker start-up (interpreter + imports) ahead of real units."""
        if self.workers <= 1:
            return
        pool = self._ensure_pool()
        list(pool.map(_warm_worker, range(self.workers), chunksize=1))

    def close(self) -> None:
        """Shut the pool down (no-op for serial executors)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_units(units: Sequence[CampaignUnit], workers: int | None = None) -> list:
    """One-shot convenience: execute units with a temporary executor."""
    with CampaignExecutor(workers=workers) as executor:
        return executor.run_units(units)
