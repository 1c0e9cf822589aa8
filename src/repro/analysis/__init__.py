"""Experiment harness: campaign vocabulary, persistence, paper-style output.

Experiments run as registered scenarios through
:meth:`repro.scenarios.session.Session.run`; this package holds what
they build on.

* :mod:`repro.analysis.stats` — summary statistics (mean, median,
  percentiles, confidence intervals) without heavyweight dependencies.
* :mod:`repro.analysis.experiments` — the shared campaign vocabulary:
  sub-deployment carving, the degree rule, paper-parameter engines,
  per-round secrets and the Fig. 1 result dataclasses.
* :mod:`repro.analysis.campaign` — seeded work units and the executor
  that runs them serially or over worker processes.
* :mod:`repro.analysis.io` — the uniform scenario-result JSON record.
* :mod:`repro.analysis.reporting` — fixed-width tables and CSV export
  that mirror the rows/series the paper reports.
"""

from repro.analysis.stats import SummaryStats, mean, median, percentile, summarize
from repro.analysis.experiments import Figure1Point, Figure1Result
from repro.analysis.reporting import format_figure1_table, format_table, to_csv

__all__ = [
    "SummaryStats",
    "mean",
    "median",
    "percentile",
    "summarize",
    "Figure1Point",
    "Figure1Result",
    "format_table",
    "format_figure1_table",
    "to_csv",
]
