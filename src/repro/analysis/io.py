"""Persistence for experiment results: the uniform scenario record.

Campaigns are expensive; their results should outlive the process.
Every scenario run saves one JSON record format
(:meth:`repro.scenarios.session.ExperimentResult.to_dict`): an envelope
with enough metadata to tell two campaigns apart around the scenario's
encoded payload.  :func:`figure1_to_dict` is the figure1 payload
encoding; ``repro compare`` diffs records loaded by :func:`load_record`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping

from repro.analysis.experiments import Figure1Result
from repro.analysis.stats import SummaryStats
from repro.errors import ReproError

SCHEMA_VERSION = 1


def _summary_to_dict(summary: SummaryStats) -> dict[str, float]:
    return {
        "count": summary.count,
        "mean": summary.mean,
        "median": summary.median,
        "p5": summary.p5,
        "p95": summary.p95,
        "stdev": summary.stdev,
    }


def figure1_to_dict(result: Figure1Result) -> dict[str, Any]:
    """Serializable form of a Fig. 1 campaign (the figure1 record payload)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "figure1",
        "testbed": result.testbed,
        "iterations": result.iterations,
        "points": [
            {
                "num_nodes": p.num_nodes,
                "degree": p.degree,
                "s3_latency_ms": _summary_to_dict(p.s3_latency_ms),
                "s4_latency_ms": _summary_to_dict(p.s4_latency_ms),
                "s3_radio_ms": _summary_to_dict(p.s3_radio_ms),
                "s4_radio_ms": _summary_to_dict(p.s4_radio_ms),
                "s3_success": p.s3_success,
                "s4_success": p.s4_success,
            }
            for p in result.points
        ],
    }


#: ``kind`` tag shared by every Scenario-API result record
#: (see :mod:`repro.scenarios.session`).
SCENARIO_RECORD_KIND = "scenario-result"


def save_record(record: Mapping[str, Any], path: str | pathlib.Path) -> None:
    """Persist one uniform scenario-result record (the shared envelope).

    The record is what :meth:`repro.scenarios.session.ExperimentResult.to_dict`
    produces: scenario name, spec echo, wall time, backend fingerprint,
    encoded payload.  Every scenario — figure1 to sharded to plugins —
    writes this one format, so downstream tooling parses a single schema.
    """
    if record.get("kind") != SCENARIO_RECORD_KIND:
        raise ReproError(
            f"not a scenario record: kind={record.get('kind')!r}"
        )
    payload = json.dumps(dict(record), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(payload + "\n")


def load_record(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a uniform scenario-result record back (validates the kind)."""
    file_path = pathlib.Path(path)
    if not file_path.exists():
        raise ReproError(f"no result file at {file_path}")
    try:
        data = json.loads(file_path.read_text())
    except json.JSONDecodeError as error:
        raise ReproError(f"corrupt result file {file_path}: {error}") from None
    if data.get("kind") != SCENARIO_RECORD_KIND:
        raise ReproError(
            f"expected kind {SCENARIO_RECORD_KIND!r}, "
            f"file holds {data.get('kind')!r}"
        )
    return data
