"""The benchmark's three workloads.

Each workload can be set up more than once (``setup`` into a fresh
directory, ``stop`` to take it down again).  A run sets it up, runs a
timed phase and the phases that follow it, and checks every output
against the repo's own oracles as it goes.  In a traced run every other
timed unit is traced, so the two halves give the tracing overhead.

The timed phase is cut into blocks of consecutive units of work (4
rounds, or one metering window).  Each block records its median latency,
its rate, and the time the fixed reference workload took around it
(``reference.py``), which ``run.py`` divides the host's speed out with.

* ``rounds_real`` — closed loop of S4 rounds with real packet crypto on
  the 45-node D-Cube testbed, every round at a fresh iteration index.
* ``metering_ingest`` — closed-loop socket ingest: one producer, 2 shard
  processes, 200-device windows closed once full; reads and shard kills
  interleaved.
* ``metering_fold`` — closed-loop in-process ingest at 500 devices per
  window over 4 shards, each window closed once full; then a restart and
  billing reads.
"""

from __future__ import annotations

import gc
import os
import pathlib
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from reference import reference
from tracing import NullTracer

NULL = NullTracer()

#: Journals append and flush every record but do not fsync it.  On the
#: shared virtual disk that holds the checkout, fsync took 90-600 us at
#: p50 and up to 14 ms at p99, and drifted by 70% within half an hour, so
#: admission numbers would measure the disk.  Each append that fsyncs
#: under the default policy is still counted by the traced run.
FSYNC = False


@dataclass
class Context:
    seed: int
    tiny: bool


@dataclass
class Outcome:
    """Checked operations, their failures, and the timed samples."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Latency (seconds) of every timed unit, in order.
    latency: list[float] = field(default_factory=list)
    #: (median latency in seconds, units of work per second, reference
    #: seconds: the mean of the references just before and just after it)
    #: of each block.
    blocks: list[tuple[float, float, float]] = field(default_factory=list)
    #: (latency, traced) of the timed units a traced run compares to get
    #: the tracing overhead.
    overhead: list[tuple[float, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def block(self, latencies: list[float], work: float, busy: float,
              before: float) -> float:
        """Close one block: its units' latencies, ``work`` units done in
        ``busy`` seconds, and the reference timed before it.  Times the
        reference after it, and returns that."""
        after = reference()
        self.latency.extend(latencies)
        self.blocks.append((statistics.median(latencies), work / busy, (before + after) / 2))
        return after


class RoundsReal:
    """S4 on D-Cube with AES packet crypto, fresh round seeds every time."""

    name = "rounds_real"
    #: Modules imported before the set-up clock's first lap.
    MODULES = ("repro.analysis.experiments", "repro.core.config",
               "repro.topology.testbeds", "repro.sim.seeds", "repro.fastpath")
    #: Iteration indices of one seed; seeds never share a round.
    STRIDE = 1_000_000
    #: Rounds per block (0.1-0.3 s: quiet spells can be short).
    BLOCK = 4
    #: This many rounds, evenly spaced, are replayed with stub crypto.
    #: A fixed number, not a share: each replay adds to the dealt-share
    #: pool, so a share would make the peak RSS grow with the host's speed.
    ORACLE_ROUNDS = 64
    #: An untimed restart every RESTART_EVERY rounds (the first after half
    #: of that) drops the process pools and rebuilds the engines from the
    #: warm commissioning cache.  It also empties the dealt-share pool,
    #: which fresh seeds fill by 45 entries a round up to 16,384;
    #: restarting all through the run caps it at the same size whatever
    #: the host's speed, and with it the peak RSS.
    RESTART_EVERY = 48
    #: (campaign seed, iteration index) -> simulated statistics of that
    #: round (see ``_simulated``).  Every run replays these rounds, so a
    #: change to the simulation itself, which the stub-crypto replay
    #: cannot see, fails the gate.
    PINS = {
        (0, 1): (17, 31, 14318216.888888888, 13404157.155555556, 1.0),
        (0, 2): (17, 31, 14297208.533333333, 12915272.177777778, 1.0),
        (0, 3): (17, 31, 14291109.333333334, 12970458.666666666, 1.0),
    }

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.out = Outcome()
        if ctx.tiny:
            self.BLOCK, self.RESTART_EVERY = 2, 8
        self.index = ctx.seed * self.STRIDE
        self.rounds: list[tuple[int, int, tuple]] = []

    def setup(self, directory: pathlib.Path) -> None:
        """Commissioning from an empty private cache: bootstrap, link
        tables and key schedules happen on the first round, which is
        set-up, not a timed round."""
        from repro import fastpath
        from repro.analysis.experiments import build_engines
        from repro.core.config import CryptoMode
        from repro.topology.testbeds import dcube

        cache = directory / "cache"
        cache.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        fastpath.clear_process_caches()
        self.spec = dcube()
        _, self.engine = build_engines(self.spec, CryptoMode.REAL)
        self.nodes = self.spec.topology.node_ids
        self.prime = self.engine.config.field.prime
        index, secrets, round_seed = self._inputs()
        self._check_round(index, secrets, self.engine.run(secrets, seed=round_seed))

    def _inputs(self) -> tuple[int, dict, int]:
        """The next round's iteration index, secrets and round seed."""
        from repro.analysis.experiments import round_secrets
        from repro.sim.seeds import iteration_seeds

        index, self.index = self.index, self.index + 1
        secrets = round_secrets(self.nodes, index)
        return index, secrets, iteration_seeds(self.ctx.seed, "S4", index, 1)[0]

    def true_sum(self, secrets: dict, sources) -> int:
        """Oracle: the aggregate of ``sources``' secrets."""
        return sum(secrets[source] for source in sources) % self.prime

    def replay(self, stub, index: int, round_seed: int) -> tuple:
        """Oracle: a round's simulated statistics under stub crypto, which
        cannot change the simulation."""
        from repro.analysis.experiments import round_secrets

        return self._simulated(stub.run(round_secrets(self.nodes, index), seed=round_seed))

    def _check_round(self, index: int, secrets: dict, metrics) -> None:
        """Every reported aggregate is the true sum of the secrets of the
        sources it claims to include (a source whose shares were lost in
        flooding is left out by the protocol, never summed wrongly)."""
        wrong = [
            node.node for node in metrics.per_node.values()
            if node.aggregate is not None and (
                not node.contributors <= secrets.keys()
                or node.aggregate != self.true_sum(secrets, node.contributors))
        ]
        self.out.check(metrics.expected_aggregate == self.true_sum(secrets, secrets) and not wrong,
                       f"round {index}: nodes {wrong[:5]} report a wrong sum")

    @staticmethod
    def _simulated(metrics) -> tuple:
        return (metrics.sharing_slots, metrics.reconstruction_slots,
                metrics.mean_latency_us if metrics.has_latency else None,
                metrics.mean_radio_on_us, metrics.success_fraction)

    def timed(self, seconds: float, tracer=NULL) -> None:
        end = time.perf_counter() + seconds
        block: list[float] = []
        ref = reference()
        while time.perf_counter() < end or not self.out.blocks:
            if len(self.rounds) % self.RESTART_EVERY == self.RESTART_EVERY // 2:
                self._restart()
            index, secrets, round_seed = self._inputs()
            traced = tracer.alternate(len(self.rounds))
            with tracer.unit("round"):
                began = time.perf_counter()
                metrics = self.engine.run(secrets, seed=round_seed)
                ran = time.perf_counter()
            block.append(ran - began)
            self.out.overhead.append((ran - began, traced))
            self._check_round(index, secrets, metrics)
            self.rounds.append((index, round_seed, self._simulated(metrics)))
            if len(block) == self.BLOCK:
                ref = self.out.block(block, len(block), sum(block), ref)
                block = []

    def _restart(self) -> None:
        from repro import fastpath
        from repro.analysis.experiments import build_engines
        from repro.core.config import CryptoMode

        fastpath.clear_process_caches()
        _, self.engine = build_engines(self.spec, CryptoMode.REAL)
        index, secrets, round_seed = self._inputs()
        self._check_round(index, secrets, self.engine.run(secrets, seed=round_seed))
        # The old engine is cyclic garbage; left to the collector's own
        # schedule, several piled up in some runs and not in others, and
        # the peak RSS moved by 15%.
        gc.collect()

    def post(self, tracer=NULL) -> None:
        from repro.analysis.experiments import build_engines, round_secrets
        from repro.core.config import CryptoMode
        from repro.sim.seeds import iteration_seeds

        self.out.extras["slots_per_round"] = statistics.fmean(
            sim[0] + sim[1] for _, _, sim in self.rounds)
        _, stub = build_engines(self.spec, CryptoMode.STUB)
        replayed = self.rounds[::max(1, len(self.rounds) // self.ORACLE_ROUNDS)]
        replayed = replayed[:self.ORACLE_ROUNDS]
        for index, round_seed, simulated in replayed:
            oracle = self.replay(stub, index, round_seed)
            self.out.check(oracle == simulated,
                           f"round {index}: simulated {simulated} != stub replay {oracle}")
        self.out.notes.append(f"stub-crypto oracle replayed {len(replayed)} of "
                              f"{len(self.rounds)} rounds")
        for (seed, index), pinned in self.PINS.items():
            simulated = self._simulated(self.engine.run(
                round_secrets(self.nodes, index), seed=iteration_seeds(seed, "S4", index, 1)[0]))
            self.out.check(simulated == pinned,
                           f"pinned round {seed}/{index}: simulated {simulated} != {pinned}")

    def stop(self) -> None:
        self.engine = None

    abort = stop


class _Metering:
    """Shared by both service workloads: inputs and billing oracles."""

    MODULES = ("repro.service.client", "repro.service.daemon",
               "repro.service.transport", "repro.service.loadgen")
    devices: int

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.out = Outcome()
        self.base = ctx.seed % 97
        self.window = 0
        self.client = None
        self.rng = random.Random(ctx.seed)

    def setup(self, directory: pathlib.Path) -> None:
        from repro.service.daemon import ServiceConfig

        self.config = ServiceConfig(seed=self.ctx.seed, fsync=FSYNC)
        self.service_dir = directory / "service"
        self.client = self._open()

    def _submissions(self, window: int):
        from repro.service import loadgen

        return loadgen.window_submissions(
            self.devices, window, base_load_wh=self.base, seed=self.ctx.seed)

    def _check_close(self, summary) -> None:
        from repro.service import loadgen

        expected = loadgen.expected_window_total(self.devices, summary.window, self.base)
        self.out.check(summary.total == expected and summary.accepted == self.devices,
                       f"window {summary.window}: total {summary.total} != {expected}")

    def _check_extract(self) -> None:
        from repro.service import loadgen

        extract = self.client.billing_extract()
        wrong = [d for d in range(self.devices)
                 if d not in extract
                 or extract[d].total != loadgen.expected_device_total(d, self.window, self.base)]
        self.out.check(not wrong and len(extract) == self.devices,
                       f"billing extract differs for devices {wrong[:5]}")

    def _read(self, tracer) -> None:
        """One billing query for a random device, checked."""
        from repro.service import loadgen

        device = self.rng.randrange(self.devices)
        with tracer.unit("read"):
            answer = self.client.query(device=device)
        expected = loadgen.expected_device_total(device, self.window, self.base)
        self.out.check(answer["total"] == expected,
                       f"device {device} billed {answer['total']} != {expected}")

    def stop(self) -> None:
        if self.client is not None:
            self.client.stop()
            self.client = None

    def abort(self) -> None:
        if self.client is not None:
            self.client.hard_stop()
            self.client = None


class MeteringIngest(_Metering):
    """Socket transport, 2 shard processes, one closed-loop producer.

    One block is one window's admissions.  Reads and shard kills are
    interleaved with the ingest, at the same windows in every run, and
    are not timed as ingest.
    """

    name = "metering_ingest"
    SHARDS = 2
    #: After every RETAIN-th close, retention folds all but the last
    #: RETAIN windows into per-device totals, so a read costs the same
    #: however many windows closed.
    RETAIN = 8
    #: A shard is killed at the start of every KILL_EVERY-th window (the
    #: first at KILL_EVERY // 2), up to ``kills`` times.
    KILL_EVERY = 12

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.devices = 40 if ctx.tiny else 200
        self.kills = 2 if ctx.tiny else 6
        self.recovery: list[float] = []
        self.detect: list[float] = []

    def _open(self):
        from repro.service.client import ServiceClient
        from repro.service.transport import RetryPolicy

        # Polls every 5 ms until a restarted shard acknowledges.
        self.poll = RetryPolicy(max_attempts=100_000, backoff_base_s=0.005,
                                max_backoff_s=0.005, total_deadline_s=30.0,
                                seed=self.ctx.seed)
        return ServiceClient(
            self.config, self.service_dir, shards=self.SHARDS, transport="socket",
            retry=RetryPolicy(seed=self.ctx.seed))

    def timed(self, seconds: float, tracer=NULL) -> None:
        # One producer: with a second one, the producers, both shard
        # processes and the supervisor's threads share 2 vCPUs and the
        # latencies measure the scheduler.
        client = self.client
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or not self.out.blocks:
            victim = None
            if (self.window % self.KILL_EVERY == self.KILL_EVERY // 2
                    and len(self.recovery) < self.kills):
                victim = len(self.recovery) % self.SHARDS
            block = []
            ref = reference()
            for i, s in enumerate(self._submissions(self.window)):
                if victim is not None and s.device % self.SHARDS == victim:
                    self._kill(victim, s, tracer)
                    victim = None
                    continue
                traced = tracer.alternate(i)
                with tracer.unit("admission"):
                    began = time.perf_counter()
                    result = client.submit(s.device, s.seq, s.window, s.value)
                    acked = time.perf_counter()
                block.append(acked - began)
                self.out.overhead.append((acked - began, traced))
                self.out.check(result.accepted,
                               f"window {self.window}: device {s.device} not accepted")
            self.out.block(block, len(block), sum(block), ref)
            tracer.alternate(0)
            with tracer.unit("close"):
                summary = client.close_window(self.window)
            self._check_close(summary)
            self.window += 1
            if self.window % self.RETAIN == 0:
                client.retain(self.RETAIN)
            self._read(tracer)

    def _kill(self, shard: int, s, tracer) -> None:
        """SIGKILL ``shard``, then submit ``s`` to it until it is accepted."""
        supervisor = self.client.supervisor
        restarts = len(supervisor.restart_log)
        before = self.client.restarts
        tracer.alternate(0)
        with tracer.unit("kill"):
            killed = time.perf_counter()
            self.client.kill_shard(shard)
            watcher = self._watch_restart(before, killed) if tracer.enabled else None
            result = self.client.submit(s.device, s.seq, s.window, s.value, retry=self.poll)
            self.recovery.append(time.perf_counter() - killed)
        if watcher is not None:
            watcher.join()
        self.out.check(result.accepted, f"device {s.device} not accepted after a kill")
        limit = time.perf_counter() + 10.0
        while len(supervisor.restart_log) <= restarts and time.perf_counter() < limit:
            time.sleep(0.001)

    def _watch_restart(self, before: int, killed: float) -> threading.Thread:
        def watch() -> None:
            limit = killed + 30.0
            while self.client.restarts <= before and time.perf_counter() < limit:
                time.sleep(0.0005)
            self.detect.append(time.perf_counter() - killed)

        thread = threading.Thread(target=watch)
        thread.start()
        return thread

    def post(self, tracer=NULL) -> None:
        kills = len(self.recovery)
        respawns = [entry["recovery_s"] for entry in self.client.supervisor.restart_log]
        self.out.check(kills > 0 and len(respawns) == kills,
                       f"{len(respawns)} shard restarts for {kills} kills")
        if kills:
            self.out.notes.append(f"kill to next acknowledgment: median "
                                  f"{statistics.median(self.recovery):.4f} s of {kills} kills")
        if respawns:
            self.out.extras["respawn_s"] = statistics.median(respawns)
        if self.detect:
            self.out.extras["detect_ms"] = statistics.median(self.detect) * 1e3
        self._check_extract()


class MeteringFold(_Metering):
    """In-process, 4 shards, 500 devices per window, closed loop.

    One block is one window: its latency is the close (window filled
    until its total is published), its rate the devices admitted and
    folded per second of admissions plus close.
    """

    name = "metering_fold"
    SHARDS = 4

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        #: At 1,000 devices a close takes 2-4 s, too few per run to read
        #: a quiet phase from; at 500 it takes 0.4-0.9 s.
        self.devices = 40 if ctx.tiny else 500
        self.reads = 10 if ctx.tiny else 100

    def _open(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.config, self.service_dir, shards=self.SHARDS,
                             transport="inproc")

    def _window(self, tracer) -> tuple[float, float]:
        """Fill the next window and close it: (admission s, close s)."""
        admitted = 0.0
        for i, s in enumerate(self._submissions(self.window)):
            traced = tracer.alternate(i)
            with tracer.unit("admission"):
                began = time.perf_counter()
                result = self.client.submit(s.device, s.seq, s.window, s.value)
                acked = time.perf_counter()
            admitted += acked - began
            self.out.overhead.append((acked - began, traced))
            self.out.check(result.accepted, f"window {s.window}: device {s.device} not accepted")
        tracer.alternate(0)
        with tracer.unit("close"):
            began = time.perf_counter()
            summary = self.client.close_window(self.window)
            closed = time.perf_counter() - began
        self._check_close(summary)
        self.window += 1
        return admitted, closed

    def timed(self, seconds: float, tracer=NULL) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or not self.out.blocks:
            ref = reference()
            admitted, closed = self._window(tracer)
            self.out.block([closed], self.devices, admitted + closed, ref)

    def post(self, tracer=NULL) -> None:
        """Billing of the timed windows; then a graceful stop and a restart
        that re-verifies a journaled close, and billing reads.

        Recovery re-folds every journaled close, so the restart runs over
        a directory of its own holding one closed window, not over the
        timed one, whose number of windows depends on the host's speed.
        """
        self._check_extract()
        self.stop()
        self.service_dir = self.service_dir.with_name("restart")
        self.window = 0
        self.client = self._open()
        self._window(NULL)
        self.stop()
        first = self._submissions(self.window)[0]
        tracer.alternate(0)
        with tracer.unit("restart"):
            began = time.perf_counter()
            self.client = self._open()
            result = self.client.submit(first.device, first.seq, first.window, first.value)
            recovery = time.perf_counter() - began
        self.out.notes.append(f"restart re-verifying 1 close until the first "
                              f"acknowledgment: {recovery:.4f} s")
        self.out.check(result.accepted, "first submission after restart not accepted")
        self._check_extract()
        for _ in range(self.reads):
            self._read(tracer)


WORKLOADS = {cls.name: cls for cls in (RoundsReal, MeteringIngest, MeteringFold)}
