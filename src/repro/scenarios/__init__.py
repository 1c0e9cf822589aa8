"""The unified Scenario API: declarative specs → registry → session.

Every experiment in the reproduction runs through the same three-piece
pipeline::

    spec  =  Figure1Spec(testbed="dcube", iterations=30)      # WHAT to run
    entry =  registry.get("figure1")                          # HOW it runs
    with Session(workers=4, metrics="summary") as session:    # shared config
        result = session.run(spec)                            # uniform envelope
        result.save("figure1.json")                           # one JSON format

* :mod:`repro.scenarios.spec` — frozen, validated, JSON-round-tripping
  scenario specifications;
* :mod:`repro.scenarios.registry` — the ``@scenario`` decorator registry
  binding specs to run functions, encoders, renderers and smoke configs;
* :mod:`repro.scenarios.session` — the :class:`Session` facade owning
  workers / cache / metrics once, and the :class:`ExperimentResult`
  envelope;
* :mod:`repro.scenarios.builtin` — all shipped scenarios (importing this
  package registers them).

This is the one front door: the CLI, spec files and Python callers all
run experiments through :meth:`Session.run`.
"""

from repro.scenarios import registry
from repro.scenarios.registry import Scenario, scenario
from repro.scenarios.session import ExperimentResult, RunContext, Session
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
    ScenarioSpec,
    ServiceSoakSpec,
    ShardedSpec,
)

# Importing the built-ins is what populates the registry.
from repro.scenarios import builtin  # noqa: E402

__all__ = [
    "registry",
    "Scenario",
    "scenario",
    "Session",
    "RunContext",
    "ExperimentResult",
    "ScenarioSpec",
    "Figure1Spec",
    "CoverageSpec",
    "DegreeSweepSpec",
    "FaultToleranceSpec",
    "AblationSpec",
    "InterferenceSpec",
    "LifetimeSpec",
    "PrivacySpec",
    "ShardedSpec",
    "MeteringSpec",
    "QuickstartSpec",
    "GridShardedSpec",
    "CellsSweepSpec",
    "ChaosSpec",
    "ServiceSoakSpec",
    "builtin",
]
