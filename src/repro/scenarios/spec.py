"""Declarative scenario specifications: frozen, validated, JSON-serializable.

A :class:`ScenarioSpec` is the *complete* description of one experiment —
testbed/size selection, crypto mode, iteration counts, sweep axes,
fault/interference/sharding knobs — with none of the cross-cutting
execution state (workers, caches, metrics wire format), which belongs to
:class:`repro.scenarios.session.Session`.  The split is what related
work argues for (MOZAIK's declarative platform API, von Maltitz et al.'s
query-driven SMC invocation): *what* to compute is data, *how* to run it
is a facade.

Every spec is a frozen dataclass that

* coerces friendly inputs on construction (lists → tuples, ``"real"`` →
  :class:`~repro.core.config.CryptoMode.REAL`), so JSON payloads and CLI
  strings construct the same value a Python caller would;
* validates itself in ``__post_init__`` and raises
  :class:`repro.errors.SpecError` with a one-line message on nonsense;
* round-trips through :meth:`ScenarioSpec.to_dict` /
  :meth:`ScenarioSpec.from_dict` exactly (``from_dict(to_dict(s)) == s``),
  rejecting unknown fields instead of silently dropping them.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from dataclasses import dataclass
from typing import Any, Mapping

from repro.faultplan import SOCKET_KINDS, FaultPlan
from repro.core.config import CryptoMode
from repro.errors import SpecError

__all__ = [
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
]


# -- coercion machinery --------------------------------------------------------


def _resolved_hints(cls: type) -> dict[str, Any]:
    """Field type hints with ``from __future__ import annotations`` undone."""
    cached = cls.__dict__.get("_spec_hints")
    if cached is None:
        cached = typing.get_type_hints(cls)
        cls._spec_hints = cached
    return cached


def _type_error(cls_name: str, name: str, hint: Any, value: Any) -> SpecError:
    want = getattr(hint, "__name__", str(hint))
    return SpecError(
        f"{cls_name}.{name} expects {want}, got {value!r}"
    )


def _coerce(cls_name: str, name: str, hint: Any, value: Any) -> Any:
    """Coerce ``value`` to the annotated field type (or raise SpecError)."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(hint)
        if value is None:
            if type(None) in args:
                return None
            raise _type_error(cls_name, name, hint, value)
        inner = [a for a in args if a is not type(None)]
        if len(inner) != 1:  # pragma: no cover - specs only use X | None
            raise _type_error(cls_name, name, hint, value)
        return _coerce(cls_name, name, inner[0], value)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        if isinstance(value, hint):
            return value
        if isinstance(value, str):
            try:
                return hint[value.strip().upper()]
            except KeyError:
                choices = ", ".join(m.name.lower() for m in hint)
                raise SpecError(
                    f"{cls_name}.{name} must be one of {choices}, got {value!r}"
                ) from None
        raise _type_error(cls_name, name, hint, value)
    if origin is tuple:
        item_type = typing.get_args(hint)[0]
        if isinstance(value, (list, tuple)):
            return tuple(
                _coerce(cls_name, name, item_type, item) for item in value
            )
        raise _type_error(cls_name, name, hint, value)
    if (
        isinstance(hint, type)
        and dataclasses.is_dataclass(hint)
        and hasattr(hint, "from_dict")
    ):
        # Nested value objects (e.g. a chaos FaultPlan) embed in specs
        # the same way specs embed in files: as their to_dict mapping.
        if isinstance(value, hint):
            return value
        if isinstance(value, Mapping):
            return hint.from_dict(value)
        raise _type_error(cls_name, name, hint, value)
    if hint is bool:
        if isinstance(value, bool):
            return value
        raise _type_error(cls_name, name, hint, value)
    if hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise _type_error(cls_name, name, hint, value)
    if hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise _type_error(cls_name, name, hint, value)
    if hint is str:
        if isinstance(value, str):
            return value
        raise _type_error(cls_name, name, hint, value)
    raise _type_error(cls_name, name, hint, value)  # pragma: no cover


@dataclass(frozen=True)
class SpecField:
    """One spec field as generic tooling (CLI generation, docs) sees it."""

    name: str
    hint: Any
    default: Any


def spec_fields(spec_type: type) -> list[SpecField]:
    """The constructor fields of a spec type, with resolved type hints."""
    hints = _resolved_hints(spec_type)
    return [
        SpecField(name=f.name, hint=hints[f.name], default=f.default)
        for f in dataclasses.fields(spec_type)
        if f.init
    ]


# -- the spec family -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Base class: coercion, validation, and exact JSON round-trip."""

    def __post_init__(self) -> None:
        hints = _resolved_hints(type(self))
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            coerced = _coerce(
                type(self).__name__, spec_field.name, hints[spec_field.name], value
            )
            if coerced is not value:
                object.__setattr__(self, spec_field.name, coerced)
        self.validate()

    def validate(self) -> None:
        """Per-scenario invariants; subclasses raise :class:`SpecError`."""

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe field mapping (enums → lowercase names, tuples → lists)."""
        out: dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, enum.Enum):
                value = value.name.lower()
            elif isinstance(value, tuple):
                value = list(value)
            elif dataclasses.is_dataclass(value) and hasattr(value, "to_dict"):
                value = value.to_dict()
            out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown fields are an error.

        A ``"scenario"`` key is tolerated (spec files carry one for
        self-description) but not interpreted here — the registry checks
        it against the scenario being invoked.
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{cls.__name__} wants a JSON object, got {type(data).__name__}"
            )
        payload = {k: v for k, v in data.items() if k != "scenario"}
        known = {f.name for f in dataclasses.fields(cls) if f.init}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                f"{cls.__name__} does not accept field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**payload)

    # shared validation helpers ------------------------------------------------

    def _at_least(self, name: str, value: int, floor: int) -> None:
        if value < floor:
            raise SpecError(
                f"{type(self).__name__}.{name} must be >= {floor}, got {value}"
            )


@dataclass(frozen=True)
class Figure1Spec(ScenarioSpec):
    """The Fig. 1 node-count sweep (S3 vs S4) on one testbed."""

    testbed: str = "flocklab"
    iterations: int = 30
    seed: int = 1
    crypto_mode: CryptoMode = CryptoMode.STUB
    sizes: tuple[int, ...] | None = None

    def validate(self) -> None:
        self._at_least("iterations", self.iterations, 1)
        if self.sizes is not None:
            if not self.sizes:
                raise SpecError("Figure1Spec.sizes must be non-empty when given")
            for size in self.sizes:
                self._at_least("sizes", size, 3)


@dataclass(frozen=True)
class CoverageSpec(ScenarioSpec):
    """The NTX → coverage curve (§III non-linearity, claims C3+C5)."""

    testbed: str = "flocklab"
    ntx_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8, 10, 12)
    iterations: int = 20
    seed: int = 3

    def validate(self) -> None:
        self._at_least("iterations", self.iterations, 1)
        if not self.ntx_values:
            raise SpecError("CoverageSpec.ntx_values must be non-empty")
        for ntx in self.ntx_values:
            self._at_least("ntx_values", ntx, 1)


@dataclass(frozen=True)
class DegreeSweepSpec(ScenarioSpec):
    """S4 cost vs polynomial degree at full network size (claim C4)."""

    testbed: str = "flocklab"
    degrees: tuple[int, ...] | None = None
    iterations: int = 15
    seed: int = 5
    crypto_mode: CryptoMode = CryptoMode.STUB

    def validate(self) -> None:
        self._at_least("iterations", self.iterations, 1)
        if self.degrees is not None:
            if not self.degrees:
                raise SpecError("DegreeSweepSpec.degrees must be non-empty when given")
            for degree in self.degrees:
                self._at_least("degrees", degree, 1)


@dataclass(frozen=True)
class FaultToleranceSpec(ScenarioSpec):
    """Collector-failure tolerance (§III resilience, ablation A1)."""

    testbed: str = "flocklab"
    failure_counts: tuple[int, ...] = (0, 1, 2, 3)
    iterations: int = 15
    seed: int = 7
    crypto_mode: CryptoMode = CryptoMode.STUB

    def validate(self) -> None:
        self._at_least("iterations", self.iterations, 1)
        if not self.failure_counts:
            raise SpecError("FaultToleranceSpec.failure_counts must be non-empty")
        for count in self.failure_counts:
            self._at_least("failure_counts", count, 0)


@dataclass(frozen=True)
class AblationSpec(ScenarioSpec):
    """Which S4 optimization buys what (ablation A2)."""

    testbed: str = "flocklab"
    iterations: int = 10
    seed: int = 11
    crypto_mode: CryptoMode = CryptoMode.STUB

    def validate(self) -> None:
        self._at_least("iterations", self.iterations, 1)


@dataclass(frozen=True)
class InterferenceSpec(ScenarioSpec):
    """S3/S4 under D-Cube-style jamming levels (extension E1)."""

    testbed: str = "flocklab"
    levels: tuple[int, ...] = (0, 1, 2, 3)
    iterations: int = 10
    seed: int = 13
    crypto_mode: CryptoMode = CryptoMode.STUB

    def validate(self) -> None:
        self._at_least("iterations", self.iterations, 1)
        if not self.levels:
            raise SpecError("InterferenceSpec.levels must be non-empty")
        for level in self.levels:
            if not 0 <= level <= 3:
                raise SpecError(
                    f"InterferenceSpec.levels must be within 0..3, got {level}"
                )


@dataclass(frozen=True)
class LifetimeSpec(ScenarioSpec):
    """Battery-lifetime projection (extension E2)."""

    testbed: str = "flocklab"
    rounds: int = 10
    seed: int = 17
    crypto_mode: CryptoMode = CryptoMode.STUB

    def validate(self) -> None:
        self._at_least("rounds", self.rounds, 1)


@dataclass(frozen=True)
class PrivacySpec(ScenarioSpec):
    """Semi-honest coalition experiment on a real-crypto round."""

    testbed: str = "flocklab"
    seed: int = 1
    crypto_mode: CryptoMode = CryptoMode.REAL


@dataclass(frozen=True)
class ShardedSpec(ScenarioSpec):
    """Scale-out: MPC cells plus the cross-cell aggregation round."""

    testbed: str = "flocklab"
    cells: int = 4
    iterations: int = 10
    seed: int = 1
    crypto_mode: CryptoMode = CryptoMode.STUB
    simulate: bool | None = None

    def validate(self) -> None:
        self._at_least("cells", self.cells, 1)
        self._at_least("iterations", self.iterations, 1)


@dataclass(frozen=True)
class ChaosSpec(ScenarioSpec):
    """Fault-injected sharded campaign: the sharded base plus a fault plan.

    ``faults`` embeds a :class:`repro.chaos.FaultPlan` (as its JSON
    mapping in spec files); ``replication`` is the coded-redundancy
    factor (copies of each cell's work unit on sibling hosts);
    ``max_attempts``/``retry_backoff_s`` bound the executor's retry of
    killed workers.  ``allow_degraded=False`` (the default) makes losses
    past the survivable bound a structured
    :class:`~repro.errors.ChaosError`; ``True`` returns a degraded
    result with ``None`` totals for those rounds instead.
    """

    testbed: str = "flocklab"
    cells: int = 6
    iterations: int = 8
    seed: int = 1
    crypto_mode: CryptoMode = CryptoMode.STUB
    simulate: bool | None = None
    replication: int = 2
    faults: FaultPlan = FaultPlan()
    max_attempts: int = 4
    retry_backoff_s: float = 0.0
    allow_degraded: bool = False

    def validate(self) -> None:
        self._at_least("cells", self.cells, 1)
        self._at_least("iterations", self.iterations, 1)
        self._at_least("replication", self.replication, 1)
        self._at_least("max_attempts", self.max_attempts, 1)
        if self.replication > self.cells:
            raise SpecError(
                f"ChaosSpec.replication must be <= cells "
                f"({self.cells}), got {self.replication}"
            )
        if self.retry_backoff_s < 0:
            raise SpecError(
                f"ChaosSpec.retry_backoff_s must be >= 0, "
                f"got {self.retry_backoff_s}"
            )
        self.faults.validate_for(self.cells, self.iterations)
        for event in self.faults.events:
            # Preflight what would otherwise fail mid-campaign, after the
            # worker pool has already spawned: a unit whose planned kill
            # count exhausts the retry budget can never succeed.
            if event.kind == "kill_worker" and event.kills >= self.max_attempts:
                raise SpecError(
                    f"ChaosSpec fault plan kills cell {event.cell}'s unit "
                    f"{event.kills} time(s) but max_attempts is "
                    f"{self.max_attempts}; the unit could never complete"
                )


@dataclass(frozen=True)
class ServiceSoakSpec(ScenarioSpec):
    """Soak of the crash-safe aggregation service (:mod:`repro.service`).

    The metering workload as a *stream*: ``devices`` meters submit one
    reading per billing window, the service closes each window at its
    deadline, and the soak driver fires the plan's service faults along
    the way.  ``kill_at`` is sugar for ``kill_daemon`` events: each
    offset hard-kills the service after that many accepted submissions
    and restarts it from the journals — the run must still close every
    window bit-identically.  ``faults`` takes service-kind events only
    (``kill_daemon``/``pause_ingest``; a ``kill_daemon`` event's
    ``cell`` anchors on that *shard's* accepted count); ``rate``
    throttles ingest to that many shares/sec (0 = unthrottled);
    ``duplicate_every`` re-sends every Nth accepted share to prove
    dedup (0 = off); ``late_replays > 0`` re-sends a closed window's
    share to prove the deadline is final.

    Scale-out knobs: ``shards`` gives the service that many journals
    (device ``d`` lands on shard ``d % shards``, each shard is one MPC
    cell of the window fold); ``producers`` feeds it from that many
    concurrent threads; ``transport`` picks how they reach the daemon
    (``"inproc"`` = direct calls into the thread-safe daemon,
    ``"socket"`` = over TCP to one daemon *process* per shard under
    supervisor restart).  ``pause_ingest`` events need
    ``producers == 1`` — a pause window anchored on a global submission
    offset has no deterministic meaning when several producers race
    past it.  The socket-only fault kinds (``kill_shard_process``,
    ``drop_connection``, ``delay_response``) need
    ``transport="socket"`` — they inject at a process boundary the
    in-process transport does not have.
    """

    devices: int = 12
    windows: int = 4
    seed: int = 9000
    base_load_wh: int = 180
    cells: int = 3
    shards: int = 1
    producers: int = 1
    transport: str = "inproc"
    queue_capacity: int = 4096
    window_capacity: int = 1024
    rate: float = 0.0
    kill_at: tuple[int, ...] = ()
    faults: FaultPlan = FaultPlan()
    duplicate_every: int = 5
    late_replays: int = 1
    fsync: bool = True

    def validate(self) -> None:
        self._at_least("devices", self.devices, 1)
        self._at_least("windows", self.windows, 1)
        self._at_least("cells", self.cells, 1)
        self._at_least("shards", self.shards, 1)
        self._at_least("producers", self.producers, 1)
        self._at_least("queue_capacity", self.queue_capacity, 1)
        self._at_least("window_capacity", self.window_capacity, 1)
        self._at_least("base_load_wh", self.base_load_wh, 0)
        self._at_least("duplicate_every", self.duplicate_every, 0)
        self._at_least("late_replays", self.late_replays, 0)
        if self.transport not in ("inproc", "socket"):
            raise SpecError(
                f"ServiceSoakSpec.transport must be 'inproc' or 'socket', "
                f"got {self.transport!r}"
            )
        if self.shards > self.devices:
            raise SpecError(
                f"ServiceSoakSpec.shards ({self.shards}) cannot exceed "
                f"devices ({self.devices}); empty shards carry no traffic"
            )
        if self.rate < 0:
            raise SpecError(
                f"ServiceSoakSpec.rate must be >= 0, got {self.rate}"
            )
        total = self.devices * self.windows
        for offset in self.kill_at:
            if not 1 <= offset <= total:
                raise SpecError(
                    f"ServiceSoakSpec.kill_at offsets must be within "
                    f"1..{total} (accepted submissions), got {offset}"
                )
        shard_devices = tuple(
            self.devices // self.shards
            + (1 if shard < self.devices % self.shards else 0)
            for shard in range(self.shards)
        )
        self.faults.validate_for_service(
            total,
            shards=self.shards,
            shard_submissions=tuple(n * self.windows for n in shard_devices),
        )
        socket_only = sorted(
            {e.kind for e in self.faults.events if e.kind in SOCKET_KINDS}
        )
        if socket_only and self.transport != "socket":
            raise SpecError(
                f"fault kind(s) {', '.join(socket_only)} need "
                f"transport='socket' (they inject at a process boundary); "
                f"got transport={self.transport!r}"
            )
        if self.producers > 1 and any(
            e.kind == "pause_ingest" for e in self.faults.events
        ):
            raise SpecError(
                "pause_ingest faults need producers == 1; a pause anchored "
                "on a submission offset is not deterministic under "
                "concurrent producers"
            )


@dataclass(frozen=True)
class MeteringSpec(ScenarioSpec):
    """Smart-metering billing window: periodic totals over one testbed.

    The paper's motivating scenario as a first-class experiment: a
    head-end collects one private neighbourhood total per billing period
    and folds the window's aggregate, re-running rounds that fail to
    converge (a retry costs latency, never privacy).
    """

    testbed: str = "flocklab"
    periods: int = 3
    seed: int = 9000
    crypto_mode: CryptoMode = CryptoMode.REAL
    base_load_wh: int = 180
    max_retries: int = 3

    def validate(self) -> None:
        self._at_least("periods", self.periods, 1)
        self._at_least("max_retries", self.max_retries, 0)
        self._at_least("base_load_wh", self.base_load_wh, 0)


@dataclass(frozen=True)
class QuickstartSpec(ScenarioSpec):
    """One private-aggregation round on a small generated grid."""

    columns: int = 4
    rows: int = 2
    spacing_m: float = 7.0
    jitter_m: float = 0.5
    topology_seed: int = 1
    degree: int = 2
    sharing_ntx: int = 5
    reconstruction_ntx: int = 6
    redundancy: int = 1
    bootstrap_iterations: int = 8
    crypto_mode: CryptoMode = CryptoMode.REAL
    seed: int = 2024

    def validate(self) -> None:
        self._at_least("columns", self.columns, 1)
        self._at_least("rows", self.rows, 1)
        if self.columns * self.rows < 3:
            raise SpecError("QuickstartSpec needs at least 3 nodes")
        self._at_least("degree", self.degree, 1)
        self._at_least("sharing_ntx", self.sharing_ntx, 1)
        self._at_least("reconstruction_ntx", self.reconstruction_ntx, 1)
        self._at_least("redundancy", self.redundancy, 0)
        self._at_least("bootstrap_iterations", self.bootstrap_iterations, 1)


@dataclass(frozen=True)
class GridShardedSpec(ScenarioSpec):
    """MPC-only sharded campaign over a generated grid deployment.

    What scales the demo to 10k+ nodes: every cell runs the share
    algebra without a radio schedule, then the cross-cell round must
    reproduce the flat deployment's sums bit-for-bit.
    """

    nodes: int = 10_000
    cells: int = 200
    iterations: int = 2
    seed: int = 1
    spacing_m: float = 10.0
    jitter_m: float = 1.0
    grid_seed: int = 7

    def validate(self) -> None:
        self._at_least("nodes", self.nodes, 4)
        self._at_least("cells", self.cells, 1)
        self._at_least("iterations", self.iterations, 1)
        if self.cells > self.nodes:
            raise SpecError(
                f"GridShardedSpec wants cells <= nodes, "
                f"got {self.cells} cells for {self.nodes} nodes"
            )


@dataclass(frozen=True)
class CellsSweepSpec(ScenarioSpec):
    """Mixed-cell-size sweep: one deployment, several shard granularities.

    Runs the same grid deployment as MPC cells at every cell count in
    ``cell_counts`` and checks each sharding reproduces the flat sums —
    the exactness contract is granularity-invariant.
    """

    nodes: int = 180
    cell_counts: tuple[int, ...] = (2, 3, 6)
    iterations: int = 2
    seed: int = 1
    spacing_m: float = 10.0
    jitter_m: float = 1.0
    grid_seed: int = 7

    def validate(self) -> None:
        self._at_least("nodes", self.nodes, 4)
        self._at_least("iterations", self.iterations, 1)
        if not self.cell_counts:
            raise SpecError("CellsSweepSpec.cell_counts must be non-empty")
        for count in self.cell_counts:
            self._at_least("cell_counts", count, 1)
            if count > self.nodes:
                raise SpecError(
                    f"CellsSweepSpec wants cell_counts <= nodes, "
                    f"got {count} cells for {self.nodes} nodes"
                )
