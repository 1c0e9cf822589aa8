"""The built-in scenarios: every experiment, registered behind one API.

This module is where the experiment *orchestration* bodies live — the
code that turns a declarative spec into
:class:`~repro.analysis.campaign.CampaignUnit` batches (via the existing
planners), runs them on the session's executor, and folds the results.
:meth:`repro.scenarios.session.Session.run` is the one way to run them,
from the CLI, a spec file or Python.

Each registration also carries the presentation the old hand-rolled CLI
commands used to inline: a JSON encoder for the uniform record, a table
renderer, CSV rows, the exit-code predicate, and a minimal smoke
configuration for CI.

A new scenario is a ~50-line plugin: a frozen spec dataclass plus one
``@scenario``-decorated run function (see ``metering`` or
``cells_sweep`` below for the template).
"""

from __future__ import annotations

from typing import Any

from repro.analysis import campaign
from repro.analysis.experiments import (
    Figure1Result,
    _engine_without_early_off,
    _point_from_rounds,
    build_engines,
    degree_for,
    paper_configs,
    round_figures_ms,
    round_secrets,
    run_rounds,
)
from repro.analysis.reporting import format_figure1_table, format_table
from repro.analysis.stats import summarize
from repro.core.config import CryptoMode
from repro.core.metrics import RoundSummary
from repro.ct.packet import sharing_psdu_bytes
from repro.errors import ChaosError, ConfigurationError, ProtocolError, ReconstructionError
from repro.field.prime_field import PrimeField
from repro.phy.channel import ChannelModel
from repro.phy.link import cached_link_table
from repro.scenarios.registry import scenario
from repro.service.loadgen import metering_reading
from repro.scenarios.spec import (
    AblationSpec,
    CellsSweepSpec,
    ChaosSpec,
    CoverageSpec,
    DegreeSweepSpec,
    FaultToleranceSpec,
    Figure1Spec,
    GridShardedSpec,
    InterferenceSpec,
    LifetimeSpec,
    MeteringSpec,
    PrivacySpec,
    QuickstartSpec,
    ServiceSoakSpec,
    ShardedSpec,
)
from repro.sim.seeds import stable_seed


# -- figure1 -------------------------------------------------------------------


def _figure1_rows(result: Figure1Result) -> list[dict]:
    return [
        {
            "n": p.num_nodes,
            "degree": p.degree,
            "s3_latency_ms": p.s3_latency_ms.mean,
            "s4_latency_ms": p.s4_latency_ms.mean,
            "latency_ratio": p.latency_ratio,
            "s3_radio_ms": p.s3_radio_ms.mean,
            "s4_radio_ms": p.s4_radio_ms.mean,
            "radio_ratio": p.radio_ratio,
            "s3_success": p.s3_success,
            "s4_success": p.s4_success,
        }
        for p in result.points
    ]


def _figure1_table(result) -> str:
    head = result.payload.full_network_point
    return (
        format_figure1_table(result.payload)
        + f"\n\nComplete network (n={head.num_nodes}): S4 is "
        f"{head.latency_ratio:.1f}x faster and uses "
        f"{head.radio_ratio:.1f}x less radio-on time than S3."
    )


def _encode_figure1(result: Figure1Result) -> dict:
    from repro.analysis.io import figure1_to_dict

    return figure1_to_dict(result)


@scenario(
    "figure1",
    spec_type=Figure1Spec,
    description="Fig. 1 node-count sweep (S3 vs S4)",
    encode=_encode_figure1,
    table=_figure1_table,
    rows=_figure1_rows,
    smoke={"testbed": "flocklab", "iterations": 2, "sizes": [3]},
    legacy_alias=True,
)
def _run_figure1_sweep(spec: Figure1Spec, ctx) -> Figure1Result:
    bed = ctx.deployment
    sizes = tuple(spec.sizes) if spec.sizes is not None else tuple(bed.source_sweep)
    executor = ctx.executor()
    units = campaign.plan_figure1_units(
        bed,
        sizes,
        spec.iterations,
        spec.seed,
        spec.crypto_mode,
        executor.workers,
        metrics=ctx.metrics,
    )
    results = executor.run_units(units)
    merged: dict[tuple[int, str], list] = {
        (size, variant): [] for size in sizes for variant in ("s3", "s4")
    }
    for unit, rounds in zip(units, results):
        merged[(unit.size, unit.variant)].extend(rounds)
    points = tuple(
        _point_from_rounds(size, merged[(size, "s3")], merged[(size, "s4")])
        for size in sizes
    )
    return Figure1Result(testbed=bed.name, points=points, iterations=spec.iterations)


# -- coverage ------------------------------------------------------------------


def _coverage_table(result) -> str:
    return format_table(
        ["NTX", "mean reachable", "mean delivery", "full coverage"],
        [
            [
                int(r["ntx"]),
                r["mean_reachable"],
                r["mean_delivery"],
                r["full_coverage_fraction"],
            ]
            for r in result.payload
        ],
        title=f"NTX coverage profile — {result.deployment}",
    )


@scenario(
    "coverage",
    spec_type=CoverageSpec,
    description="NTX coverage curve (§III)",
    table=_coverage_table,
    rows=lambda payload: payload,
    smoke={"testbed": "flocklab", "ntx_values": [2], "iterations": 2},
    legacy_alias=True,
)
def _run_coverage(spec: CoverageSpec, ctx) -> list[dict[str, float]]:
    bed = ctx.deployment
    executor = ctx.executor()
    prebuilt = None
    if executor.workers <= 1:
        # Serial execution shares one table across the whole curve — on
        # the reference path nothing else deduplicates it.
        channel = ChannelModel(bed.channel)
        frame = 6 + sharing_psdu_bytes()
        prebuilt = cached_link_table(bed.topology.positions, channel, frame)
    units = [
        campaign.CoverageUnit(
            spec=bed,
            ntx=int(ntx),
            iterations=spec.iterations,
            seed=spec.seed,
            prebuilt_links=prebuilt,
        )
        for ntx in spec.ntx_values
    ]
    return sorted(executor.run_units(units), key=lambda row: row["ntx"])


# -- degrees -------------------------------------------------------------------


def _degrees_table(result) -> str:
    return format_table(
        ["degree", "chain", "latency ms", "radio ms", "success"],
        [
            [
                int(r["degree"]),
                int(r["chain_length"]),
                r["latency_ms"],
                r["radio_ms"],
                r["success"],
            ]
            for r in result.payload
        ],
        title=f"S4 cost vs polynomial degree — {result.deployment}",
    )


@scenario(
    "degrees",
    spec_type=DegreeSweepSpec,
    description="S4 cost vs polynomial degree",
    table=_degrees_table,
    rows=lambda payload: payload,
    smoke={"testbed": "flocklab", "degrees": [1], "iterations": 2},
    legacy_alias=True,
)
def _run_degrees(spec: DegreeSweepSpec, ctx) -> list[dict[str, float]]:
    bed = ctx.deployment
    degrees = spec.degrees
    if degrees is None:
        top = degree_for(len(bed.topology))
        degrees = tuple(sorted({max(1, top // 4), max(1, top // 2), top}))
    units = [
        campaign.DegreeUnit(
            spec=bed,
            degree=int(degree),
            iterations=spec.iterations,
            seed=spec.seed,
            crypto_mode=spec.crypto_mode,
        )
        for degree in degrees
    ]
    return ctx.executor().run_units(units)


# -- faults --------------------------------------------------------------------


def _faults_table(result) -> str:
    return format_table(
        ["failed collectors", "redundancy", "success fraction"],
        [
            [
                int(r["failed_collectors"]),
                int(r["redundancy"]),
                r["success_fraction"],
            ]
            for r in result.payload
        ],
        title=f"S4 collector-failure tolerance — {result.deployment}",
    )


@scenario(
    "faults",
    spec_type=FaultToleranceSpec,
    description="collector-failure tolerance",
    table=_faults_table,
    rows=lambda payload: payload,
    smoke={"testbed": "flocklab", "failure_counts": [0, 1], "iterations": 2},
    legacy_alias=True,
)
def _run_faults(spec: FaultToleranceSpec, ctx) -> list[dict[str, float]]:
    bed = ctx.deployment
    _, s4 = build_engines(bed, crypto_mode=spec.crypto_mode)
    nodes = bed.topology.node_ids
    bootstrap = s4.bootstrap_for(nodes)
    collectors = list(bootstrap.collectors)
    rows = []
    for count in spec.failure_counts:
        if count > len(collectors):
            # Unsurvivable by construction: structured one-line failure
            # (exit 1 via ReproError), never an unhandled traceback.
            raise ChaosError(
                f"cannot fail {count} of {len(collectors)} collectors — "
                f"unsurvivable loss (threshold {s4.config.degree + 1}, "
                f"redundancy {len(collectors) - (s4.config.degree + 1)})"
            )
        successes = []
        for iteration in range(spec.iterations):
            secrets = round_secrets(nodes, iteration)
            victims = collectors[:count]
            # Victims die halfway through the sharing round.
            fail_slot = max(1, bootstrap.sharing_slots // 2)
            failures = {victim: fail_slot for victim in victims}
            try:
                summary = RoundSummary.from_metrics(
                    s4.run(
                        secrets,
                        seed=stable_seed(spec.seed, count, iteration),
                        sharing_failures=failures,
                    )
                )
                successes.append(summary.success_fraction)
            except (ProtocolError, ReconstructionError):
                successes.append(0.0)
        rows.append(
            {
                "failed_collectors": float(count),
                "redundancy": float(len(collectors) - (s4.config.degree + 1)),
                "success_fraction": sum(successes) / len(successes),
            }
        )
    return rows


# -- ablation ------------------------------------------------------------------


def _ablation_table(result) -> str:
    return format_table(
        ["variant", "latency ms", "radio ms"],
        [[r["variant"], r["latency_ms"], r["radio_ms"]] for r in result.payload],
        title=f"Optimization ablation — {result.deployment}",
    )


@scenario(
    "ablation",
    spec_type=AblationSpec,
    description="optimization split ablation",
    table=_ablation_table,
    rows=lambda payload: payload,
    smoke={"testbed": "flocklab", "iterations": 2},
    legacy_alias=True,
)
def _run_ablation(spec: AblationSpec, ctx) -> list[dict[str, float]]:
    bed = ctx.deployment
    nodes = bed.topology.node_ids
    s3, s4 = build_engines(bed, crypto_mode=spec.crypto_mode)
    s4_always_on = _engine_without_early_off(bed, spec.crypto_mode)
    rows = []
    for label, engine in (
        ("s3", s3),
        ("s4_no_early_off", s4_always_on),
        ("s4", s4),
    ):
        # Streaming wire format: rounds arrive as flat RoundSummary
        # scalars, so the ablation never holds dense per-node maps.
        rounds = run_rounds(
            engine,
            nodes,
            spec.iterations,
            stable_seed(spec.seed, label),
            metrics="summary",
        )
        latencies, radio = round_figures_ms(rounds)
        rows.append(
            {
                "variant": label,
                "latency_ms": summarize(latencies).mean if latencies else float("nan"),
                "radio_ms": summarize(radio).mean,
            }
        )
    return rows


# -- interference --------------------------------------------------------------


def _interference_table(result) -> str:
    return format_table(
        [
            "jamming level",
            "S3 success",
            "S3 latency ms",
            "S4 success",
            "S4 latency ms",
        ],
        [
            [
                int(r["level"]),
                r["s3_success"],
                r["s3_latency_ms"],
                r["s4_success"],
                r["s4_latency_ms"],
            ]
            for r in result.payload
        ],
        title=f"Interference robustness — {result.deployment} "
        "(extension: D-Cube jamming levels)",
    )


@scenario(
    "interference",
    spec_type=InterferenceSpec,
    description="jamming-level robustness (extension)",
    table=_interference_table,
    rows=lambda payload: payload,
    smoke={"testbed": "flocklab", "levels": [0, 1], "iterations": 2},
    legacy_alias=True,
)
def _run_interference(spec: InterferenceSpec, ctx) -> list[dict[str, float]]:
    from repro.core.s3 import S3Engine
    from repro.core.s4 import S4Engine
    from repro.phy.interference import dcube_jamming

    bed = ctx.deployment
    nodes = bed.topology.node_ids
    s3_config, s4_config = paper_configs(bed, spec.crypto_mode)
    rows = []
    for level in spec.levels:
        field = dcube_jamming(level, bed.topology.bounding_box())
        s3 = S3Engine(bed.topology, bed.channel, s3_config, interference=field)
        s4 = S4Engine(bed.topology, bed.channel, s4_config, interference=field)
        row: dict[str, float] = {"level": float(level)}
        for label, engine in (("s3", s3), ("s4", s4)):
            try:
                # Streaming wire format (see faults): the jamming sweep's
                # biggest configurations are exactly the ones that should
                # not hold per-node round maps.
                results = run_rounds(
                    engine,
                    nodes,
                    spec.iterations,
                    stable_seed(spec.seed, level, label),
                    metrics="summary",
                )
            except (ProtocolError, ConfigurationError):
                row[f"{label}_success"] = 0.0
                row[f"{label}_latency_ms"] = float("nan")
                continue
            latencies, _ = round_figures_ms(results)
            row[f"{label}_success"] = sum(
                r.success_fraction for r in results
            ) / len(results)
            row[f"{label}_latency_ms"] = (
                summarize(latencies).mean if latencies else float("nan")
            )
        rows.append(row)
    return rows


# -- lifetime ------------------------------------------------------------------


def _lifetime_table(result) -> str:
    out = result.payload
    table = format_table(
        ["variant", "projected lifetime (days)", "campaign reliability"],
        [
            ["S3", out["s3_lifetime_days"], f"{out['s3_reliability']:.2f}"],
            ["S4", out["s4_lifetime_days"], f"{out['s4_reliability']:.2f}"],
        ],
        title=f"Battery lifetime projection — {result.deployment} "
        "(96 rounds/day, AA-class cell, first-node-death)",
    )
    return table + f"\n\nS4 extends network lifetime {out['lifetime_gain']:.1f}x."


@scenario(
    "lifetime",
    spec_type=LifetimeSpec,
    description="battery lifetime projection (extension)",
    table=_lifetime_table,
    smoke={"testbed": "flocklab", "rounds": 2},
    legacy_alias=True,
)
def _run_lifetime(spec: LifetimeSpec, ctx) -> dict[str, float]:
    from repro.core.campaign import run_campaign

    bed = ctx.deployment
    s3, s4 = build_engines(bed, crypto_mode=spec.crypto_mode)
    campaign_s3 = run_campaign(s3, rounds=spec.rounds, seed=spec.seed)
    campaign_s4 = run_campaign(s4, rounds=spec.rounds, seed=spec.seed)
    return {
        "s3_lifetime_days": campaign_s3.lifetime_days(),
        "s4_lifetime_days": campaign_s4.lifetime_days(),
        "s3_reliability": campaign_s3.reliability,
        "s4_reliability": campaign_s4.reliability,
        "lifetime_gain": campaign_s4.lifetime_days() / campaign_s3.lifetime_days(),
    }


# -- privacy -------------------------------------------------------------------


def _privacy_table(result) -> str:
    payload = result.payload
    return format_table(
        ["coalition", "size", "breaches threshold", "secrets recovered"],
        [
            [
                "below threshold",
                payload["below"]["coalition_size"],
                payload["below"]["breaches_threshold"],
                payload["below"]["recovered_count"],
            ],
            [
                "above threshold",
                payload["above"]["coalition_size"],
                payload["above"]["breaches_threshold"],
                payload["above"]["recovered_count"],
            ],
        ],
        title=f"Semi-honest coalition experiment — {result.deployment} "
        f"(degree {payload['degree']})",
    )


@scenario(
    "privacy",
    spec_type=PrivacySpec,
    description="coalition privacy experiment",
    table=_privacy_table,
    check=lambda payload: payload["below"]["recovered_count"] == 0,
    smoke={"testbed": "flocklab"},
    legacy_alias=True,
)
def _run_privacy(spec: PrivacySpec, ctx) -> dict[str, Any]:
    from repro.privacy.analysis import run_protocol_coalition_experiment

    bed = ctx.deployment
    _, s4 = build_engines(bed, crypto_mode=spec.crypto_mode)
    nodes = bed.topology.node_ids
    secrets = round_secrets(nodes, 0)
    degree = s4.config.degree
    collectors = list(s4.bootstrap_for(nodes).collectors)

    def outcome(members) -> dict[str, Any]:
        report = run_protocol_coalition_experiment(
            s4, secrets, members, seed=spec.seed
        )
        return {
            "coalition_size": int(report["coalition_size"]),
            "breaches_threshold": bool(report["breaches_threshold"]),
            "recovered_count": len(report["recovered_secrets"]),
        }

    return {
        "degree": degree,
        "num_nodes": len(nodes),
        "below": outcome(collectors[:degree]),
        "above": outcome(collectors[: degree + 1]),
    }


# -- sharded (and its grid/sweep variants) -------------------------------------


def _sharded_outcome(
    deployment,
    cells: int,
    iterations: int,
    seed: int,
    metrics: str,
    simulate: bool | None,
    crypto_mode: CryptoMode,
    executor,
):
    """Plan, execute, and cross-aggregate one sharded campaign."""
    from repro.analysis.sharding import (
        ShardedResult,
        cross_cell_aggregate,
        plan_cell_units,
    )

    units = plan_cell_units(
        deployment,
        cells,
        iterations,
        seed,
        metrics=metrics,
        simulate=simulate,
        crypto_mode=crypto_mode,
    )
    results = executor.run_units(units)
    totals, degree = cross_cell_aggregate(results, iterations, seed)
    prime = PrimeField().prime
    expected = tuple(
        sum(cell.expected[round_index] for cell in results) % prime
        for round_index in range(iterations)
    )
    return ShardedResult(
        cells=tuple(results),
        totals=totals,
        expected=expected,
        cross_degree=degree,
        iterations=iterations,
        seed=seed,
    )


def _cell_rows(result_payload) -> list[dict]:
    rows = []
    for cell in result_payload.cells:
        if cell.rounds:
            success = sum(r.success_fraction for r in cell.rounds) / len(cell.rounds)
        else:  # MPC-only cells have no radio schedule to measure
            success = float("nan")
        rows.append(
            {
                "cell": cell.index,
                "nodes": len(cell.node_ids),
                "reconstructed_rounds": sum(
                    1 for value in cell.sums if value is not None
                ),
                "matched_rounds": sum(
                    1 for a, b in zip(cell.sums, cell.expected) if a == b
                ),
                "success_fraction": round(success, 4) if success == success else success,
            }
        )
    return rows


def _sharded_table(result) -> str:
    payload = result.payload
    iterations = payload.iterations
    rows = _cell_rows(payload)
    table = format_table(
        ["cell", "nodes", "rounds ok", "rounds match", "success"],
        [
            [
                r["cell"],
                r["nodes"],
                f"{r['reconstructed_rounds']}/{iterations}",
                f"{r['matched_rounds']}/{iterations}",
                f"{r['success_fraction']:.2f}"
                if r["success_fraction"] == r["success_fraction"]
                else "-",
            ]
            for r in rows
        ],
        title=f"Sharded campaign — {result.deployment}: "
        f"{payload.num_nodes} nodes in {payload.num_cells} MPC cells "
        f"({result.backend.get('metrics', 'full')} metrics)",
    )
    return table + (
        f"\n\nCross-cell aggregate (degree {payload.cross_degree}) matches "
        f"the flat deployment sum in {payload.matched_rounds}/"
        f"{iterations} rounds."
    )


def _encode_sharded(payload) -> dict:
    return {
        "num_nodes": payload.num_nodes,
        "num_cells": payload.num_cells,
        "iterations": payload.iterations,
        "seed": payload.seed,
        "cross_degree": payload.cross_degree,
        "totals": list(payload.totals),
        "expected": list(payload.expected),
        "matched_rounds": payload.matched_rounds,
        "all_match": payload.all_match,
        "cell_sizes": [len(cell.node_ids) for cell in payload.cells],
        "cells": _cell_rows(payload),
    }


@scenario(
    "sharded",
    spec_type=ShardedSpec,
    description="sharded MPC cells + cross-cell aggregation",
    encode=_encode_sharded,
    table=_sharded_table,
    rows=_cell_rows,
    check=lambda payload: payload.all_match,
    smoke={"testbed": "flocklab", "cells": 4, "iterations": 2},
    legacy_alias=True,
)
def _run_sharded(spec: ShardedSpec, ctx):
    return _sharded_outcome(
        ctx.deployment,
        spec.cells,
        spec.iterations,
        spec.seed,
        metrics=ctx.metrics,
        simulate=spec.simulate,
        crypto_mode=spec.crypto_mode,
        executor=ctx.executor(),
    )


# -- chaos (new): fault-injected sharded campaigns ------------------------------


def _chaos_rows(payload) -> list[dict]:
    rows = []
    for index, summary in enumerate(payload.summaries):
        total = payload.totals[index]
        rows.append(
            {
                "round": index,
                "lost_points": summary.lost_cells,
                "recovered_cells": summary.recovered_cells,
                "surviving_points": summary.completed_count,
                "total": total,
                "expected": payload.expected[index],
                "match": total == payload.expected[index],
            }
        )
    return rows


def _chaos_table(result) -> str:
    payload = result.payload
    num_points = max(payload.num_cells, payload.cross_degree + 1)
    table = format_table(
        ["round", "lost", "recovered", "points", "total", "match"],
        [
            [
                r["round"],
                r["lost_points"],
                r["recovered_cells"],
                f"{r['surviving_points']}/{num_points}",
                "-" if r["total"] is None else r["total"],
                "yes" if r["match"] else "DEGRADED",
            ]
            for r in _chaos_rows(payload)
        ],
        title=f"Chaos campaign — {result.deployment}: "
        f"{payload.num_nodes} nodes in {payload.num_cells} cells, "
        f"replication {payload.replication}, "
        f"{len(payload.faults.events)} injected faults",
    )
    return table + (
        f"\n\nSurvivable point losses per round: "
        f"{payload.survivable_losses} (cross degree "
        f"{payload.cross_degree}); matched {payload.matched_rounds}/"
        f"{payload.iterations} rounds, {len(payload.degraded)} degraded, "
        f"{payload.worker_retries} worker retries, redundancy overhead "
        f"{payload.redundancy_overhead:.1f}x."
    )


def _encode_chaos(payload) -> dict:
    import dataclasses as _dataclasses

    return {
        "num_nodes": payload.num_nodes,
        "num_cells": payload.num_cells,
        "iterations": payload.iterations,
        "seed": payload.seed,
        "cross_degree": payload.cross_degree,
        "replication": payload.replication,
        "survivable_losses": payload.survivable_losses,
        "totals": list(payload.totals),
        "expected": list(payload.expected),
        "matched_rounds": payload.matched_rounds,
        "all_match": payload.all_match,
        "exact_under_loss": payload.exact_under_loss,
        "faults": payload.faults.to_dict(),
        "degraded": [_dataclasses.asdict(d) for d in payload.degraded],
        "lost_points": [list(entry) for entry in payload.lost_points],
        "recovered": [list(entry) for entry in payload.recovered],
        "worker_retries": payload.worker_retries,
        "units_run": payload.units_run,
        "redundancy_overhead": payload.redundancy_overhead,
        "rounds": _chaos_rows(payload),
    }


def _chaos_ok(payload) -> bool:
    # The degradation contract: every round either reproduced the flat
    # sum exactly or is a recorded DegradedRound — a wrong total is
    # never acceptable, degraded rounds only in allow_degraded mode.
    return (
        payload.exact_under_loss
        and payload.matched_rounds + len(payload.degraded)
        == payload.iterations
    )


@scenario(
    "chaos",
    spec_type=ChaosSpec,
    description="fault-injected sharded campaign "
    "(deterministic chaos + coded redundancy)",
    encode=_encode_chaos,
    table=_chaos_table,
    rows=_chaos_rows,
    check=_chaos_ok,
    smoke={
        "testbed": "flocklab",
        "cells": 4,
        "iterations": 2,
        "replication": 2,
        "faults": {
            "events": [
                {"kind": "corrupt", "cell": 1, "round": 0},
                {"kind": "crash", "cell": 2, "round": 1},
                {"kind": "kill_worker", "cell": 0, "kills": 1},
            ]
        },
    },
)
def _run_chaos(spec: ChaosSpec, ctx):
    from repro.chaos import run_chaos_campaign

    return run_chaos_campaign(
        ctx.deployment,
        spec.cells,
        spec.iterations,
        spec.seed,
        faults=spec.faults,
        replication=spec.replication,
        metrics=ctx.metrics,
        simulate=spec.simulate,
        crypto_mode=spec.crypto_mode,
        executor=ctx.executor(),
        max_attempts=spec.max_attempts,
        backoff_s=spec.retry_backoff_s,
        strict=not spec.allow_degraded,
    )


# -- metering (new): the paper's motivating scenario as a billing window -------


def _metering_table(result) -> str:
    payload = result.payload
    table = format_table(
        ["period", "true total (Wh)", "aggregated (Wh)", "latency ms", "retries"],
        [
            [
                r["period"],
                r["true_total_wh"],
                r["aggregate_wh"],
                r["latency_ms"],
                r["retries"],
            ]
            for r in payload["periods"]
        ],
        title=f"Smart-metering billing window — {result.deployment} "
        f"({len(payload['periods'])} periods)",
    )
    return table + (
        f"\n\nBilling-window total: {payload['window_total_wh']} Wh across "
        f"{len(payload['periods'])} periods; every period aggregated privately."
    )


@scenario(
    "metering",
    spec_type=MeteringSpec,
    description="smart-metering billing-window aggregate (new workload)",
    table=_metering_table,
    rows=lambda payload: payload["periods"],
    check=lambda payload: payload["all_correct"],
    smoke={"testbed": "flocklab", "periods": 1, "crypto_mode": "stub"},
)
def _run_metering(spec: MeteringSpec, ctx) -> dict[str, Any]:
    bed = ctx.deployment
    _, engine = build_engines(bed, crypto_mode=spec.crypto_mode)
    nodes = bed.topology.node_ids
    rows: list[dict[str, Any]] = []
    window_total = 0
    period = 0
    attempt = 0
    while len(rows) < spec.periods:
        # The consumption model is shared with the service load
        # generator, so batch billing totals are the service oracle.
        readings = {
            node: metering_reading(node, period, spec.base_load_wh)
            for node in nodes
        }
        metrics = engine.run(readings, seed=spec.seed + period * 13 + attempt)
        if metrics.all_correct:
            total = sum(readings.values())
            window_total += total
            rows.append(
                {
                    "period": period,
                    "true_total_wh": total,
                    "aggregate_wh": metrics.expected_aggregate,
                    "latency_ms": round(metrics.max_latency_us / 1000.0, 3),
                    "mean_radio_ms": round(metrics.mean_radio_on_us / 1000.0, 3),
                    "retries": attempt,
                }
            )
            period += 1
            attempt = 0
        else:
            # A head-end re-runs a round that did not converge; the retry
            # costs one round of latency, never privacy.
            attempt += 1
            if attempt > spec.max_retries:
                raise ProtocolError(
                    f"billing period {period} failed to converge after "
                    f"{spec.max_retries} retries"
                )
    return {
        "periods": rows,
        "window_total_wh": window_total,
        "all_correct": all(
            r["true_total_wh"] == r["aggregate_wh"] for r in rows
        ),
    }


# -- quickstart (new): one private round on a generated grid -------------------


def _quickstart_table(result) -> str:
    payload = result.payload
    table = format_table(
        ["node", "aggregate", "latency ms", "radio ms"],
        [
            [
                r["node"],
                r["aggregate"] if r["aggregate"] is not None else "-",
                r["latency_ms"] if r["latency_ms"] is not None else "never",
                r["radio_ms"],
            ]
            for r in payload["per_node"]
        ],
        title=f"Quickstart — {payload['num_nodes']} nodes, "
        f"true sum {payload['true_sum']}",
    )
    verdict = (
        f"all {payload['num_nodes']} nodes agree on the sum "
        f"{payload['expected_aggregate']} — and none ever saw a raw reading."
        if payload["all_correct"]
        else "round did not converge; re-run with a different seed."
    )
    return table + "\n\n" + verdict


@scenario(
    "quickstart",
    spec_type=QuickstartSpec,
    description="one private-aggregation round on a small generated grid (new)",
    table=_quickstart_table,
    check=lambda payload: payload["all_correct"],
    smoke={},
)
def _run_quickstart(spec: QuickstartSpec, ctx) -> dict[str, Any]:
    from repro.core.config import ProtocolConfig, S4Config
    from repro.core.s4 import S4Engine
    from repro.phy.channel import ChannelParameters
    from repro.topology.generators import grid

    topology = grid(
        spec.columns,
        spec.rows,
        spacing_m=spec.spacing_m,
        jitter_m=spec.jitter_m,
        seed=spec.topology_seed,
    )
    # Indoor 2.4 GHz channel (log-distance path loss + mild shadowing).
    channel = ChannelParameters(
        path_loss_exponent=4.0,
        reference_loss_db=52.0,
        shadowing_sigma_db=1.0,
    )
    config = S4Config(
        base=ProtocolConfig(degree=spec.degree, crypto_mode=spec.crypto_mode),
        sharing_ntx=spec.sharing_ntx,
        reconstruction_ntx=spec.reconstruction_ntx,
        collector_redundancy=spec.redundancy,
        bootstrap_iterations=spec.bootstrap_iterations,
    )
    engine = S4Engine(topology, channel, config)
    readings = {node: 3 + (node * 7) % 11 for node in topology.node_ids}
    metrics = engine.run(readings, seed=spec.seed)
    per_node = [
        {
            "node": node,
            "aggregate": m.aggregate,
            "latency_ms": round(m.latency_us / 1000.0, 3) if m.latency_us else None,
            "radio_ms": round(m.radio_on_us / 1000.0, 3),
        }
        for node, m in sorted(metrics.per_node.items())
    ]
    return {
        "num_nodes": len(topology),
        "readings": [[node, readings[node]] for node in topology.node_ids],
        "true_sum": sum(readings.values()),
        "expected_aggregate": metrics.expected_aggregate,
        "per_node": per_node,
        "all_correct": metrics.all_correct,
    }


# -- sharded_grid (new): the 10k-node MPC-only demo as a scenario --------------


def _grid_deployment(spec) -> tuple[Any, int, int]:
    """The generated-grid deployment shared by the grid scenarios."""
    from repro.topology.generators import grid
    from repro.topology.graph import Topology

    columns = max(1, round(spec.nodes**0.5))
    rows = -(-spec.nodes // columns)
    full = grid(
        columns,
        rows,
        spacing_m=spec.spacing_m,
        jitter_m=spec.jitter_m,
        seed=spec.grid_seed,
    )
    keep = full.node_ids[: spec.nodes]
    topology = Topology(
        {node: full.position(node) for node in keep},
        name=f"grid-{spec.nodes}",
    )
    return topology, columns, rows


def _grid_sharded_table(result) -> str:
    payload = result.payload
    marker = "bit for bit" if payload["matches_flat"] else "MISMATCH vs flat oracle"
    return (
        f"sharded grid: {payload['nodes']} nodes "
        f"({payload['columns']}x{payload['rows']}) in {payload['num_cells']} "
        f"MPC cells (cross-cell degree {payload['cross_degree']}) — "
        f"{payload['matched_rounds']}/{payload['iterations']} rounds match "
        f"the flat deployment sums, {marker}."
    )


@scenario(
    "sharded_grid",
    spec_type=GridShardedSpec,
    description="MPC-only sharded campaign over a generated grid (new, 10k+ nodes)",
    table=_grid_sharded_table,
    check=lambda payload: payload["all_match"] and payload["matches_flat"],
    smoke={"nodes": 200, "cells": 8, "iterations": 2},
)
def _run_sharded_grid(spec: GridShardedSpec, ctx) -> dict[str, Any]:
    from repro.analysis.sharding import flat_expected_sums

    topology, columns, rows = _grid_deployment(spec)
    result = _sharded_outcome(
        topology,
        spec.cells,
        spec.iterations,
        spec.seed,
        metrics="summary",
        simulate=None,
        crypto_mode=CryptoMode.STUB,
        executor=ctx.executor(),
    )
    flat = flat_expected_sums(topology.node_ids, spec.iterations)
    return {
        "nodes": spec.nodes,
        "columns": columns,
        "rows": rows,
        "num_cells": result.num_cells,
        "iterations": spec.iterations,
        "seed": spec.seed,
        "cross_degree": result.cross_degree,
        "totals": list(result.totals),
        "expected": list(result.expected),
        "flat_expected": list(flat),
        "matched_rounds": result.matched_rounds,
        "all_match": result.all_match,
        "matches_flat": tuple(result.totals) == flat,
        "cell_sizes": [len(cell.node_ids) for cell in result.cells],
    }


# -- cells_sweep (new): the exactness contract across shard granularities ------


def _cells_sweep_table(result) -> str:
    return format_table(
        ["cells", "min cell", "max cell", "cross degree", "rounds match", "exact"],
        [
            [
                r["cells"],
                r["min_cell"],
                r["max_cell"],
                r["cross_degree"],
                f"{r['matched_rounds']}/{r['iterations']}",
                "yes" if r["all_match"] else "NO",
            ]
            for r in result.payload
        ],
        title="Mixed-cell-size sharded sweep — same deployment, "
        "every shard granularity must reproduce the flat sums",
    )


@scenario(
    "cells_sweep",
    spec_type=CellsSweepSpec,
    description="mixed-cell-size sharded sweep over one grid deployment (new)",
    table=_cells_sweep_table,
    rows=lambda payload: payload,
    check=lambda payload: all(r["all_match"] for r in payload),
    smoke={"nodes": 120, "cell_counts": [2, 3], "iterations": 2},
)
def _run_cells_sweep(spec: CellsSweepSpec, ctx) -> list[dict[str, Any]]:
    from repro.analysis.sharding import flat_expected_sums

    topology, _, _ = _grid_deployment(spec)
    flat = flat_expected_sums(topology.node_ids, spec.iterations)
    rows = []
    for cells in spec.cell_counts:
        result = _sharded_outcome(
            topology,
            cells,
            spec.iterations,
            spec.seed,
            metrics="summary",
            simulate=None,
            crypto_mode=CryptoMode.STUB,
            executor=ctx.executor(),
        )
        sizes = [len(cell.node_ids) for cell in result.cells]
        rows.append(
            {
                "cells": result.num_cells,
                "min_cell": min(sizes),
                "max_cell": max(sizes),
                "cross_degree": result.cross_degree,
                "iterations": spec.iterations,
                "matched_rounds": result.matched_rounds,
                "all_match": result.all_match
                and tuple(result.totals) == flat,
            }
        )
    return rows


# -- service_soak (new): the crash-safe aggregation daemon under load ----------


def _service_soak_table(result) -> str:
    payload = result.payload
    table = format_table(
        [
            "window",
            "accepted",
            "devices",
            "total (Wh)",
            "oracle (Wh)",
            "exact",
            "recovered",
            "close ms",
        ],
        [
            [
                r["window"],
                r["accepted"],
                r["devices"],
                r["total"],
                r["oracle_wh"],
                "yes" if r["exact"] else "NO",
                "yes" if r["recovered"] else "-",
                r["close_ms"],
            ]
            for r in payload["windows"]
        ],
        title=(
            f"Service soak — {len(payload['windows'])} windows, "
            f"{payload['shards']} shard(s), {payload['producers']} "
            f"producer(s) over {payload['transport']}, "
            f"{payload['kills']} hard kill(s)"
        ),
    )
    billing = payload.get("billing_exact")
    return table + (
        f"\n\nIngested {payload['accepted']} shares "
        f"({payload['shares_per_sec']}/s), journals hold "
        f"{payload['journal_records']} records; "
        f"{payload['duplicates_rejected']} duplicate and "
        f"{payload['late_rejected']} late re-sends refused; "
        f"p99 window close {payload['p99_close_ms']} ms; "
        f"store holds {payload['store_windows']} window(s), per-device "
        f"billing {'exact' if billing else 'n/a' if billing is None else 'WRONG'}."
    )


@scenario(
    "service_soak",
    spec_type=ServiceSoakSpec,
    description="sharded aggregation service soak (kill/restart bit-identity)",
    table=_service_soak_table,
    rows=lambda payload: payload["windows"],
    check=lambda payload: payload["all_exact"]
    and payload["oracle_match"]
    and payload["billing_exact"] is not False,
    smoke={
        "devices": 8,
        "windows": 2,
        "cells": 2,
        "shards": 2,
        "producers": 2,
        "transport": "inproc",
        "kill_at": [5],
        "duplicate_every": 3,
    },
)
def _run_service_soak(spec: ServiceSoakSpec, ctx) -> dict[str, Any]:
    from repro.service.soak import run_service_soak

    return run_service_soak(spec)
