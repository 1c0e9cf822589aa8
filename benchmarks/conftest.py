"""Shared infrastructure for the benchmark suite.

Each benchmark file regenerates one table/figure/claim from the paper
(see the experiment index in DESIGN.md).  Expensive campaigns are
computed once per session in fixtures and shared between the figure and
claim benchmarks; every paper-style table is registered here and printed
in the terminal summary as well as written to ``benchmarks/results/``.

Environment knobs:

* ``REPRO_BENCH_ITERATIONS`` — simulation rounds per data point
  (default 12; the paper used 2000 hardware rounds per point).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.reporting import format_figure1_table
from repro.core.config import CryptoMode
from repro.scenarios import Figure1Spec, Session

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: name → rendered table, summary-printed at the end of the run.
_REPORTS: dict[str, str] = {}


def bench_iterations() -> int:
    """Simulation rounds per data point (env-tunable)."""
    return int(os.environ.get("REPRO_BENCH_ITERATIONS", "12"))


def register_report(name: str, text: str) -> None:
    """Record a paper-style table for the terminal summary and disk."""
    _REPORTS[name] = text
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def fig1_flocklab():
    """The Fig. 1(a)+(b) campaign, computed once per session."""
    spec = Figure1Spec(
        testbed="flocklab",
        iterations=bench_iterations(),
        seed=101,
        crypto_mode=CryptoMode.STUB,
    )
    with Session() as session:
        result = session.run(spec).payload
    register_report("fig1_flocklab", format_figure1_table(result))
    return result


@pytest.fixture(scope="session")
def fig1_dcube():
    """The Fig. 1(c)+(d) campaign, computed once per session."""
    spec = Figure1Spec(
        testbed="dcube",
        iterations=bench_iterations(),
        seed=202,
        crypto_mode=CryptoMode.STUB,
    )
    with Session() as session:
        result = session.run(spec).payload
    register_report("fig1_dcube", format_figure1_table(result))
    return result


def pytest_terminal_summary(terminalreporter):
    """Print every registered paper-style table after the run."""
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction tables")
    for name in sorted(_REPORTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(_REPORTS[name])
