"""Metric containers for protocol rounds.

The paper's two metrics:

* **Latency** — "time required to obtain the final aggregation in each
  node": sharing-phase schedule duration plus the node's
  reconstruction-phase completion time.
* **Radio-on time** — "time necessary to complete the communication
  process in a round": the node's total TX + RX time across both phases.

:class:`RoundMetrics` carries both per node, plus correctness
book-keeping (did the node reconstruct, did it get the right value, whose
secrets are inside), and offers the summary statistics the figures plot.

:class:`RoundSummary` is the *streaming* form of the same round: every
aggregate the figures (and the cross-cell aggregation layer) consume —
correctness counts, durations, slot counts, failure counts — with the
dense ``per_node`` mapping dropped.  A sharded campaign returning
summaries keeps worker IPC flat in deployment size: the payload per
round is a fixed handful of scalars however many nodes a cell holds.
Both classes answer the same summary questions (``success_fraction``,
``all_correct``, ``max_latency_us``, ``mean_radio_on_us``, ...), so the
experiment harness accepts either form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ProtocolError


@dataclass(frozen=True, slots=True)
class NodeMetrics:
    """One node's outcome for one aggregation round.

    Attributes:
        node: node id.
        latency_us: time to the final aggregate at this node (None if the
            node never reconstructed).
        radio_on_us: TX + RX time over both phases.
        tx_us / rx_us: the TX/RX split of ``radio_on_us``.
        aggregate: the reconstructed sum (None on failure).
        contributors: whose secrets the aggregate provably contains.
        correct: aggregate equals the true sum over ``contributors``.
    """

    node: int
    latency_us: int | None
    radio_on_us: int
    tx_us: int
    rx_us: int
    aggregate: int | None
    contributors: frozenset[int]
    correct: bool


@dataclass(frozen=True)
class RoundMetrics:
    """Network-wide outcome of one aggregation round."""

    per_node: dict[int, NodeMetrics]
    expected_aggregate: int
    sources: frozenset[int]
    sharing_duration_us: int
    reconstruction_duration_us: int
    sharing_slots: int
    reconstruction_slots: int
    chain_length_sharing: int
    chain_length_reconstruction: int
    failures: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.per_node:
            raise ProtocolError("round produced no per-node metrics")

    # -- success ---------------------------------------------------------------

    @property
    def nodes(self) -> list[int]:
        """Sorted participating node ids."""
        return sorted(self.per_node)

    @property
    def success_fraction(self) -> float:
        """Fraction of nodes that reconstructed a correct aggregate."""
        correct = sum(1 for m in self.per_node.values() if m.correct)
        return correct / len(self.per_node)

    @property
    def all_correct(self) -> bool:
        """Every node reconstructed the true aggregate of all sources."""
        return all(
            m.correct and m.contributors == self.sources
            for m in self.per_node.values()
        )

    # -- the paper's metrics -----------------------------------------------------

    def latencies_us(self) -> list[int]:
        """Per-node latencies of nodes that completed."""
        return [
            m.latency_us
            for m in self.per_node.values()
            if m.latency_us is not None
        ]

    @property
    def has_latency(self) -> bool:
        """True when at least one node completed (latency is defined)."""
        return any(m.latency_us is not None for m in self.per_node.values())

    @property
    def max_latency_us(self) -> int:
        """Network latency: when the *last* node obtained the aggregate."""
        latencies = self.latencies_us()
        if not latencies:
            raise ProtocolError("no node completed; latency undefined")
        return max(latencies)

    @property
    def mean_latency_us(self) -> float:
        """Mean per-node latency over completing nodes."""
        latencies = self.latencies_us()
        if not latencies:
            raise ProtocolError("no node completed; latency undefined")
        return sum(latencies) / len(latencies)

    @property
    def mean_radio_on_us(self) -> float:
        """Mean per-node radio-on time — the paper's energy proxy."""
        values = [m.radio_on_us for m in self.per_node.values()]
        return sum(values) / len(values)

    @property
    def max_radio_on_us(self) -> int:
        """Worst-case per-node radio-on time."""
        return max(m.radio_on_us for m in self.per_node.values())


#: Accepted per-round metrics payload modes for campaign work units.
METRICS_MODES = ("full", "summary")


def consensus_aggregate(metrics: RoundMetrics) -> int | None:
    """The most common reconstructed aggregate among correct nodes.

    The single consensus rule shared by :meth:`RoundSummary.from_metrics`
    and the sharded campaign's cell sums — tweak it here or the two views
    of a round would silently diverge.
    """
    counter = Counter(
        m.aggregate
        for m in metrics.per_node.values()
        if m.correct and m.aggregate is not None
    )
    return counter.most_common(1)[0][0] if counter else None


@dataclass(frozen=True, slots=True)
class RoundSummary:
    """Streaming (reduced) outcome of one aggregation round.

    The wire format of a sharded campaign: every field is a scalar, so a
    cell of any size serialises to the same flat payload.  Built from a
    full :class:`RoundMetrics` with :meth:`from_metrics`; by construction
    the shared summary API (``success_fraction``, ``all_correct``,
    ``max_latency_us``, ``mean_radio_on_us``, ...) answers identically on
    both forms for the same round.

    Attributes:
        num_nodes: participating node count.
        completed_count: nodes that obtained an aggregate.
        correct_count: nodes whose aggregate equals the true sum.
        all_correct: every node reconstructed the true aggregate of all
            sources (the consistency bit the figures report).
        expected_aggregate: the true sum over all sources.
        aggregate: consensus reconstructed value — the most common
            aggregate among correct nodes (``None`` if no node was
            correct).  This is what the cross-cell round deals onward.
        num_sources: how many nodes sourced a secret.
        max_latency_us / mean_latency_us: the paper's latency metric over
            completing nodes (``None`` when no node completed).
        mean_radio_on_us / max_radio_on_us: the paper's energy proxy.
        sharing_duration_us / reconstruction_duration_us: phase durations.
        sharing_slots / reconstruction_slots: schedule slot counts.
        chain_length_sharing / chain_length_reconstruction: chain lengths.
        failure_count: injected node failures during the round.
        lost_cells: cells whose collector point was lost this round
            (chaos campaigns only; 0 elsewhere).
        recovered_cells: cells whose contribution was recovered from a
            coded replica this round (chaos campaigns only; 0 elsewhere).
    """

    num_nodes: int
    completed_count: int
    correct_count: int
    all_correct: bool
    expected_aggregate: int
    aggregate: int | None
    num_sources: int
    max_latency_us: int | None
    mean_latency_us: float | None
    mean_radio_on_us: float
    max_radio_on_us: int
    sharing_duration_us: int
    reconstruction_duration_us: int
    sharing_slots: int
    reconstruction_slots: int
    chain_length_sharing: int
    chain_length_reconstruction: int
    failure_count: int
    lost_cells: int = 0
    recovered_cells: int = 0

    @classmethod
    def from_metrics(cls, metrics: RoundMetrics) -> "RoundSummary":
        """Reduce a dense round to its streaming summary."""
        latencies = metrics.latencies_us()
        return cls(
            num_nodes=len(metrics.per_node),
            completed_count=len(latencies),
            correct_count=sum(1 for m in metrics.per_node.values() if m.correct),
            all_correct=metrics.all_correct,
            expected_aggregate=metrics.expected_aggregate,
            aggregate=consensus_aggregate(metrics),
            num_sources=len(metrics.sources),
            max_latency_us=max(latencies) if latencies else None,
            mean_latency_us=(
                sum(latencies) / len(latencies) if latencies else None
            ),
            mean_radio_on_us=metrics.mean_radio_on_us,
            max_radio_on_us=metrics.max_radio_on_us,
            sharing_duration_us=metrics.sharing_duration_us,
            reconstruction_duration_us=metrics.reconstruction_duration_us,
            sharing_slots=metrics.sharing_slots,
            reconstruction_slots=metrics.reconstruction_slots,
            chain_length_sharing=metrics.chain_length_sharing,
            chain_length_reconstruction=metrics.chain_length_reconstruction,
            failure_count=len(metrics.failures),
        )

    @property
    def has_latency(self) -> bool:
        """True when at least one node completed (latency is defined)."""
        return self.completed_count > 0

    @property
    def success_fraction(self) -> float:
        """Fraction of nodes that reconstructed a correct aggregate."""
        return self.correct_count / self.num_nodes


@dataclass(frozen=True, slots=True)
class WindowSummary:
    """Streaming outcome of one closed billing window (service layer).

    The service-side sibling of :class:`RoundSummary`: every field is a
    flat scalar, so a window of any size serialises to the same fixed
    payload — this is the shape the service wire format
    (:mod:`repro.service.wire`) frames and the window journal replays.

    The correctness contract mirrors the chaos layer's: ``total`` is the
    cross-cell reconstructed aggregate over the submissions that were
    *accepted* before the deadline — exact over those contributors, or
    ``None`` for an empty window — and ``expected`` is the plain modular
    sum oracle over the same set, so ``total == expected`` is the
    bit-identity check.  ``degraded`` flags incomplete device coverage at
    the deadline (a straggler missed the window); it never means a wrong
    total.

    Attributes:
        window: billing-window index.
        accepted: submissions folded into the aggregate.
        devices: distinct contributing devices.
        duplicates: submissions rejected as already journaled.
        late: submissions rejected after the window closed.
        shed: submissions shed by per-window admission control.
        retried: retry-after responses issued while the window was open.
        total: reconstructed window aggregate (``None`` when empty).
        expected: modular-sum oracle over the accepted submissions.
        degraded: coverage was incomplete at the deadline (never a wrong
            total — the aggregate is exact over who did contribute).
        close_latency_us: wall time the close aggregation took.
        recovered: the window was closed (or re-verified) by a daemon
            that restarted from the journal.
    """

    window: int
    accepted: int
    devices: int
    duplicates: int
    late: int
    shed: int
    retried: int
    total: int | None
    expected: int
    degraded: bool
    close_latency_us: int
    recovered: bool = False

    @property
    def exact(self) -> bool:
        """The reconstructed total equals the modular-sum oracle."""
        return self.total is not None and self.total == self.expected
