"""The shared vocabulary of the paper's evaluation campaigns.

The paper's x-axis in Fig. 1 is "Number of Nodes" (3/6/10/24 on
FlockLab, 5/7/12/45 on D-Cube) — sub-deployments of the testbed in which
every node sources a secret, with polynomial degree ⌊n/3⌋ per point.

Every experiment is a registered scenario (:mod:`repro.scenarios`) run
through :meth:`repro.scenarios.session.Session.run`.  This module holds
what those scenarios and the campaign work units build on:
sub-deployment carving, the degree rule, the paper's S3/S4 parameters
and engines, per-round secrets and seeds, and the Fig. 1 result
dataclasses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import SummaryStats, summarize
from repro.core.config import CryptoMode, ProtocolConfig, S3Config, S4Config
from repro.core.metrics import METRICS_MODES, RoundMetrics, RoundSummary
from repro.core.s3 import S3Engine
from repro.core.s4 import S4Engine
from repro.ct.packet import sharing_psdu_bytes
from repro.errors import ConfigurationError, ProtocolError
from repro.phy.channel import ChannelModel
from repro.phy.link import cached_link_table
from repro.sim.seeds import iteration_seeds
from repro.topology.graph import Topology, connected_subset
from repro.topology.testbeds import TestbedSpec


def subnetwork_spec(spec: TestbedSpec, size: int) -> TestbedSpec:
    """Carve a connected ``size``-node sub-deployment out of a testbed.

    The subset is grown breadth-first over the good-link graph at the
    sharing-phase frame size, which mirrors how a testbed operator picks
    a contiguous cluster of observers for a small experiment.
    """
    if size == len(spec.topology):
        return spec
    channel = ChannelModel(spec.channel)
    frame = 6 + sharing_psdu_bytes()
    # The full-testbed table is identical for every sweep point (and for
    # repeated campaigns over the same spec) — share it process-wide.
    links = cached_link_table(spec.topology.positions, channel, frame)
    chosen = connected_subset(links.adjacency(), size)
    positions = {node: spec.topology.position(node) for node in chosen}
    topology = Topology(positions, name=f"{spec.topology.name}-sub{size}")
    return dataclasses.replace(spec, topology=topology)


def degree_for(num_nodes: int) -> int:
    """The paper's degree rule ⌊n/3⌋, floored at 1 (degree 0 = no privacy)."""
    return max(1, num_nodes // 3)


def paper_configs(
    spec: TestbedSpec,
    crypto_mode: CryptoMode = CryptoMode.STUB,
    degree: int | None = None,
) -> tuple[S3Config, S4Config]:
    """The paper's S3 and S4 parameters for one (sub-)deployment."""
    if degree is None:
        degree = degree_for(len(spec.topology))
    base = ProtocolConfig(degree=degree, crypto_mode=crypto_mode)
    return (
        S3Config(base=base, ntx=spec.full_coverage_ntx),
        S4Config(
            base=base,
            sharing_ntx=spec.extras.get("s4_sharing_ntx", spec.sharing_ntx),
            reconstruction_ntx=spec.full_coverage_ntx,
            collector_redundancy=spec.extras.get("s4_redundancy", 1),
        ),
    )


def build_engines(
    spec: TestbedSpec,
    crypto_mode: CryptoMode = CryptoMode.STUB,
    degree: int | None = None,
) -> tuple[S3Engine, S4Engine]:
    """S3 and S4 engines for one (sub-)deployment with paper parameters."""
    s3_config, s4_config = paper_configs(spec, crypto_mode, degree)
    return (
        S3Engine(spec.topology, spec.channel, s3_config),
        S4Engine(spec.topology, spec.channel, s4_config),
    )


def round_secrets(node_ids: Sequence[int], iteration: int) -> dict[int, int]:
    """Deterministic per-round sensor readings (small positive ints)."""
    return {
        node: (node * 131 + iteration * 17 + 7) % 1_000
        for node in node_ids
    }


def run_rounds(
    engine,
    node_ids: Sequence[int],
    iterations: int,
    seed: int,
    start: int = 0,
    metrics: str = "full",
) -> list["RoundMetrics | RoundSummary"]:
    """Run aggregation rounds ``[start, start + iterations)``.

    Secrets and round seeds are functions of the *absolute* iteration
    index (:func:`repro.sim.seeds.iteration_seeds`), so a campaign chunked
    across worker processes concatenates to exactly the serial stream.

    ``metrics="summary"`` reduces every round to the streaming
    :class:`~repro.core.metrics.RoundSummary` wire format *as it is
    produced*, so the accumulated list holds a fixed handful of scalars
    per round however large the deployment — the same contract as the
    sharded campaign workers.
    """
    if metrics not in METRICS_MODES:
        raise ConfigurationError(
            f"metrics must be one of {METRICS_MODES}, got {metrics!r}"
        )
    streaming = metrics == "summary"
    results = []
    seeds = iteration_seeds(seed, engine.variant_name, start, iterations)
    for offset, round_seed in enumerate(seeds):
        secrets = round_secrets(node_ids, start + offset)
        round_metrics = engine.run(secrets, seed=round_seed)
        if streaming:
            round_metrics = RoundSummary.from_metrics(round_metrics)
        results.append(round_metrics)
    return results


@dataclass(frozen=True)
class Figure1Point:
    """One x-axis point of Fig. 1 (both metrics, both variants)."""

    num_nodes: int
    degree: int
    s3_latency_ms: SummaryStats
    s4_latency_ms: SummaryStats
    s3_radio_ms: SummaryStats
    s4_radio_ms: SummaryStats
    s3_success: float
    s4_success: float

    @property
    def latency_ratio(self) -> float:
        """S3/S4 mean latency ratio (the paper's "X× faster")."""
        return self.s3_latency_ms.mean / self.s4_latency_ms.mean

    @property
    def radio_ratio(self) -> float:
        """S3/S4 mean radio-on ratio (the paper's "X× lesser")."""
        return self.s3_radio_ms.mean / self.s4_radio_ms.mean


@dataclass(frozen=True)
class Figure1Result:
    """The full sweep for one testbed (Fig. 1 a+b or c+d)."""

    testbed: str
    points: tuple[Figure1Point, ...]
    iterations: int

    def point(self, num_nodes: int) -> Figure1Point:
        """The sweep point at a given network size."""
        for point in self.points:
            if point.num_nodes == num_nodes:
                return point
        raise ConfigurationError(f"no sweep point at n={num_nodes}")

    @property
    def full_network_point(self) -> Figure1Point:
        """The right-most (complete network) point — the headline claims."""
        return max(self.points, key=lambda p: p.num_nodes)


def _metrics_of_rounds(
    rounds: Sequence, variant_label: str, size: int
) -> tuple[list[float], list[float], float]:
    # Works on dense RoundMetrics and streaming RoundSummary rounds
    # alike: both expose has_latency / max_latency_us / mean_radio_on_us.
    latencies = [r.max_latency_us / 1000.0 for r in rounds if r.has_latency]
    radio = [r.mean_radio_on_us / 1000.0 for r in rounds]
    success = sum(r.success_fraction for r in rounds) / len(rounds)
    if not latencies:
        raise ProtocolError(
            f"{variant_label} never completed at n={size}; "
            "configuration is broken"
        )
    return latencies, radio, success


def _point_from_rounds(
    size: int,
    s3_rounds: Sequence,
    s4_rounds: Sequence,
) -> Figure1Point:
    """Fold the merged per-round streams of one sweep point into a point."""
    s3_lat, s3_radio, s3_success = _metrics_of_rounds(s3_rounds, "S3", size)
    s4_lat, s4_radio, s4_success = _metrics_of_rounds(s4_rounds, "S4", size)
    return Figure1Point(
        num_nodes=size,
        degree=degree_for(size),
        s3_latency_ms=summarize(s3_lat),
        s4_latency_ms=summarize(s4_lat),
        s3_radio_ms=summarize(s3_radio),
        s4_radio_ms=summarize(s4_radio),
        s3_success=s3_success,
        s4_success=s4_success,
    )


def _engine_without_early_off(spec: TestbedSpec, crypto_mode: CryptoMode):
    """An S4 engine whose phases keep radios on (ablation helper)."""
    from repro.core.protocol import PhasePlan
    from repro.ct.minicast import RadioOffPolicy

    class S4AlwaysOn(S4Engine):
        """S4 with the early radio-off optimization disabled."""

        @property
        def variant_name(self) -> str:
            return "S4-always-on"

        def sharing_plan(self, layout):
            plan = super().sharing_plan(layout)
            return PhasePlan(
                schedule=plan.schedule, policy=RadioOffPolicy.ALWAYS_ON
            )

        def reconstruction_plan(self, layout):
            plan = super().reconstruction_plan(layout)
            return PhasePlan(
                schedule=plan.schedule, policy=RadioOffPolicy.ALWAYS_ON
            )

    _, config = paper_configs(spec, crypto_mode)
    return S4AlwaysOn(spec.topology, spec.channel, config)
