"""The ``Session`` facade: one owner for every cross-cutting run concern.

Every experiment runs through a :class:`Session`, which owns the
cross-cutting run state exactly once:

* **workers** — explicit count > ``REPRO_WORKERS`` > serial; the session
  lazily creates (and on close, shuts down) one
  :class:`~repro.analysis.campaign.CampaignExecutor` shared by every
  ``run`` call, or wraps an injected executor without taking ownership;
* **metrics** — the per-round payload wire format (``"full"`` dense
  :class:`~repro.core.metrics.RoundMetrics` or streaming ``"summary"``);
* **cache_dir** — the persisted commissioning cache root
  (:mod:`repro.diskcache`), applied process-wide like the old CLI flag;
* the **backend fingerprint** (fast path, vector backend, numpy
  presence) recorded in every result envelope.

``session.run(spec)`` resolves the spec's scenario through the registry,
executes it, and wraps the payload in an :class:`ExperimentResult` — the
uniform envelope (scenario name, spec echo, wall time, backend
fingerprint, payload) every scenario shares, serializable to the one
JSON record format in :mod:`repro.analysis.io`.
``session.run(spec, deployment=bed)`` runs the same scenario on a live
testbed or topology instead of the one the spec names.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro import diskcache, fastpath
from repro.core.metrics import METRICS_MODES
from repro.errors import SpecError, TopologyError
from repro.scenarios import registry
from repro.scenarios.spec import ScenarioSpec

__all__ = ["Session", "RunContext", "ExperimentResult", "backend_fingerprint"]

#: Version of the shared result-record layout (bump on breaking changes).
RECORD_SCHEMA = 1

#: ``kind`` tag of the uniform scenario-result JSON record.
RECORD_KIND = "scenario-result"


def backend_fingerprint(workers: int, metrics: str = "full") -> dict[str, Any]:
    """Which compute backend produced a result (for record provenance)."""
    try:
        import numpy  # noqa: F401

        have_numpy = True
    except ImportError:
        have_numpy = False
    return {
        "fastpath": fastpath.enabled(),
        "vector": fastpath.vector_enabled(),
        "numpy": have_numpy,
        "disk_cache": diskcache.enabled(),
        "workers": workers,
        "metrics": metrics,
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class RunContext:
    """What a scenario's run function sees of its session.

    ``deployment`` is the resolved testbed/topology for specs that carry
    a ``testbed`` field (or the ``deployment=`` override the caller
    passed to :meth:`Session.run`); scenarios that generate their own
    deployment ignore it.
    """

    session: "Session"
    deployment: Any = None

    def executor(self):
        """The session's campaign executor (created on first use)."""
        return self.session.executor()

    @property
    def metrics(self) -> str:
        """The session's per-round metrics wire format."""
        return self.session.metrics


@dataclass(frozen=True)
class ExperimentResult:
    """The uniform result envelope every scenario returns.

    ``payload`` is the scenario's native result object (a
    :class:`~repro.analysis.experiments.Figure1Result`, row list, ...);
    :meth:`to_dict` encodes it through the scenario's registered encoder
    into the shared JSON record format.
    """

    scenario: str
    spec: ScenarioSpec
    payload: Any
    elapsed_s: float
    backend: Mapping[str, Any]
    deployment: str | None = None

    @property
    def ok(self) -> bool:
        """The scenario's acceptance predicate over the payload."""
        return bool(registry.get(self.scenario).check(self.payload))

    def to_dict(self) -> dict[str, Any]:
        """The shared JSON record: envelope + encoded payload."""
        entry = registry.get(self.scenario)
        return {
            "schema": RECORD_SCHEMA,
            "kind": RECORD_KIND,
            "scenario": self.scenario,
            "spec": {"scenario": self.scenario, **self.spec.to_dict()},
            "deployment": self.deployment,
            "elapsed_s": round(self.elapsed_s, 6),
            "backend": dict(self.backend),
            "ok": self.ok,
            "payload": entry.encode(self.payload),
        }

    def save(self, path) -> None:
        """Write the record as JSON (see :func:`repro.analysis.io.save_record`)."""
        from repro.analysis.io import save_record

        save_record(self.to_dict(), path)


class Session:
    """Facade running declarative scenario specs under one configuration.

    Usable as a context manager; owned worker pools shut down on exit,
    injected executors are left running for the caller to manage::

        with Session(workers=4, metrics="summary") as session:
            result = session.run(Figure1Spec(testbed="dcube"))
            result.save("figure1.json")
    """

    def __init__(
        self,
        workers: int | None = None,
        metrics: str = "full",
        cache_dir: str | None = None,
        executor=None,
    ):
        if metrics not in METRICS_MODES:
            raise SpecError(
                f"metrics must be one of {METRICS_MODES}, got {metrics!r}"
            )
        self.workers = workers
        self.metrics = metrics
        self.cache_dir = cache_dir
        self._previous_cache_dir: str | None = None
        if cache_dir:
            # The persisted commissioning cache root is process-wide
            # state (spawn workers inherit it via WorkerState), so the
            # session pins it for its lifetime and close() restores the
            # directory that was effective before.
            self._previous_cache_dir = str(diskcache.cache_dir())
            diskcache.set_cache_dir(cache_dir)
        self._external = executor
        self._owned = None

    def executor(self):
        """The campaign executor backing this session (lazily created)."""
        if self._external is not None:
            return self._external
        if self._owned is None:
            from repro.analysis.campaign import CampaignExecutor

            self._owned = CampaignExecutor(workers=self.workers)
        return self._owned

    @staticmethod
    def _coerce_spec(data: Mapping[str, Any]) -> ScenarioSpec:
        """Resolve a plain-dict spec through the registry's spec type."""
        name = data.get("scenario")
        if not isinstance(name, str) or not name:
            raise SpecError(
                "a dict spec needs a 'scenario' key naming the scenario "
                f"to run (known: {', '.join(registry.names())})"
            )
        try:
            entry = registry.get(name)
        except KeyError:
            raise SpecError(
                f"unknown scenario {name!r} "
                f"(known: {', '.join(registry.names())})"
            ) from None
        return entry.spec_type.from_dict(data)

    def _resolve_deployment(self, spec: ScenarioSpec, override: Any):
        if override is not None:
            return override
        testbed = getattr(spec, "testbed", None)
        if testbed is None:
            return None
        from repro.topology.testbeds import testbed_by_name

        try:
            return testbed_by_name(testbed)
        except TopologyError as error:
            raise SpecError(str(error)) from None

    def run(
        self, spec: "ScenarioSpec | Mapping[str, Any]", deployment: Any = None
    ) -> ExperimentResult:
        """Run the scenario a spec belongs to; return the uniform envelope.

        ``spec`` is either a typed :class:`ScenarioSpec` or a plain
        mapping with a ``"scenario"`` key naming the scenario (the spec-
        file shape) — the mapping is coerced through the scenario's
        ``spec_type.from_dict``, so both forms share one validation path
        (:class:`SpecError` on anything malformed) and run
        bit-identically.

        ``deployment`` is the programmatic override: a live
        :class:`~repro.topology.testbeds.TestbedSpec` (or
        :class:`~repro.topology.graph.Topology`) used instead of resolving
        the spec's ``testbed`` name, so Python callers can run any
        scenario on an ad-hoc or carved deployment.  Spec files always
        resolve by name.
        """
        if isinstance(spec, Mapping):
            spec = self._coerce_spec(spec)
        entry = registry.for_spec(spec)
        resolved = self._resolve_deployment(spec, deployment)
        context = RunContext(session=self, deployment=resolved)
        start = time.perf_counter()
        payload = entry.run(spec, context)
        elapsed = time.perf_counter() - start
        return ExperimentResult(
            scenario=entry.name,
            spec=spec,
            payload=payload,
            elapsed_s=elapsed,
            backend=backend_fingerprint(self.executor().workers, self.metrics),
            deployment=getattr(resolved, "name", None)
            or getattr(getattr(resolved, "topology", None), "name", None),
        )

    def close(self) -> None:
        """Shut down the owned pool; restore the prior cache directory.

        Injected executors are kept — the caller manages their lifetime.
        """
        if self._owned is not None:
            self._owned.close()
            self._owned = None
        if self._previous_cache_dir is not None:
            diskcache.set_cache_dir(self._previous_cache_dir)
            self._previous_cache_dir = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
