"""The two-phase SSS-over-MiniCast round engine.

Both protocol variants execute the same pipeline; they differ only in the
*parameters* each phase gets (destination set, NTX, schedule length,
radio policy).  The pipeline per round:

1. **Deal** — every source draws a random degree-p polynomial hiding its
   secret and evaluates it at the public point of every destination.
2. **Protect** — each evaluation is packed into a share packet
   (AES-128-CTR + CBC-MAC under the pairwise key, or the stub codec).
3. **Sharing phase** — one MiniCast round carries the chain of share
   packets; destinations decrypt what reached them and fold it into
   per-point share sums, each with a bitmap of its contributors.
4. **Reconstruction phase** — a second MiniCast round floods each
   holder's (sum, contributor bitmap) packet network-wide; every node
   groups received sums by contributor bitmap and Lagrange-interpolates
   the aggregate from a consistent group.
5. **Metrics** — per-node latency (sharing schedule + local
   reconstruction completion) and radio-on time (TX + RX over both
   phases), plus correctness against ground truth.

The engine is deliberately oblivious to *why* the parameters are what
they are — that knowledge lives in :mod:`repro.core.s3` /
:mod:`repro.core.s4` and, for S4, in the bootstrap measurements.
"""

from __future__ import annotations

import contextlib
import random
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import fastpath
from repro.crypto.prng import AesCtrDrbg
from repro.ct.coverage import arm_offsets
from repro.ct.minicast import (
    MiniCastResult,
    MiniCastRound,
    RadioOffPolicy,
    Requirement,
)
from repro.ct.packet import ChainLayout
from repro.ct.slots import RoundSchedule
from repro.errors import (
    CryptoError,
    FieldError,
    ProtocolError,
    ReconstructionError,
)
from repro.field.polynomial import Polynomial
from repro.field.prime_field import FieldElement
from repro.phy.channel import ChannelModel, ChannelParameters
from repro.phy.link import LinkTable
from repro.core.config import CryptoMode, ProtocolConfig
from repro.core.metrics import NodeMetrics, RoundMetrics
from repro.core.payload import (
    BATCH_THRESHOLD,
    LanePlan,
    PairKeyTable,
    RealShareCodec,
    ShareLanes,
    SharePacket,
    StubShareCodec,
    batch_decrypt_values,
    batch_encrypt_shares,
    decode_sum_packet,
    encode_sum_packet,
    stub_batch_decrypt,
    stub_batch_encrypt,
)
from repro.sss.aggregation import ShareAccumulator, reconstruct_aggregate
from repro.sss.public_points import PublicPointRegistry
from repro.sim.seeds import stable_seed
from repro.topology.graph import Topology


@dataclass(frozen=True)
class PhasePlan:
    """Everything one MiniCast phase needs: schedule + policy."""

    schedule: RoundSchedule
    policy: RadioOffPolicy


#: Process-wide codec pool (fast path): a node's provisioned key material
#: is a pure function of (mode, node, peer set, master secret, tag size),
#: so repeated engine constructions over one deployment — every campaign
#: sweep point, REAL mode especially — share the expanded AES schedules
#: instead of re-deriving hundreds of pairwise keys.  Codecs are
#: read-only after construction.
_CODEC_POOL: dict[tuple, "RealShareCodec | StubShareCodec"] = {}
_CODEC_POOL_MAX = 4096

#: Process-wide chain-layout pool: layouts are pure functions
#: of their source/destination tuples and are immutable, so every engine
#: instantiation across a campaign shares them.
_LAYOUT_POOL: dict[tuple, ChainLayout] = {}
_LAYOUT_POOL_MAX = 4096

#: Per-engine cap on pooled per-(layout, sources) round constants.
_ROUND_CONST_MAX = 128


def _batch_crypto_available() -> bool:
    """Whether the share-lane kernel loaded (else: the per-packet codec)."""
    from repro.crypto import aesbatch

    return aesbatch.lanes_available()


def _pooled_layout(key: tuple, build) -> ChainLayout:
    layout = _LAYOUT_POOL.get(key)
    if layout is None:
        layout = build()
        if len(_LAYOUT_POOL) >= _LAYOUT_POOL_MAX:
            _LAYOUT_POOL.clear()
        _LAYOUT_POOL[key] = layout
    return layout


class AggregationEngine:
    """Shared machinery; subclasses implement the planning hooks.

    Args:
        topology: node placement.
        channel: propagation parameters.
        config: shared protocol settings.
    """

    def __init__(
        self,
        topology: Topology,
        channel: ChannelParameters,
        config: ProtocolConfig,
        interference=None,
    ):
        if len(topology) < config.threshold:
            raise ProtocolError(
                f"{len(topology)} nodes cannot support degree {config.degree} "
                f"(need at least {config.threshold})"
            )
        self._topology = topology
        self._channel_model = ChannelModel(channel)
        self._config = config
        self._interference = interference
        self._registry = PublicPointRegistry(config.field, topology.node_ids)
        self._links_cache: dict[int, LinkTable] = {}
        self._codec_cache: dict[int, RealShareCodec | StubShareCodec] = {}
        #: Pool of per-(chain sources, destinations, sources) round
        #: constants — initial-knowledge and requirement maps, destination
        #: points, lane plans — which are pure functions of commissioning
        #: state and identical for every iteration of a sweep point.
        self._round_consts: dict[tuple, tuple | LanePlan] = {}
        #: Every ordered pair's key columns, built with the first lane plan.
        self._pair_keys: PairKeyTable | None = None

    # -- shared infrastructure ---------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The deployment this engine runs on."""
        return self._topology

    @property
    def config(self) -> ProtocolConfig:
        """Shared protocol settings."""
        return self._config

    @property
    def registry(self) -> PublicPointRegistry:
        """Node → public point mapping."""
        return self._registry

    def links_for(self, frame_bytes: int) -> LinkTable:
        """Link table at a given on-air frame size (cached).

        On the fast path the table also comes from the process-wide
        :func:`repro.phy.link.cached_link_table` pool, so S3 and S4
        engines over the same deployment (and repeated engine
        constructions across a campaign) share one instance.
        """
        table = self._links_cache.get(frame_bytes)
        if table is None:
            from repro.phy.link import cached_link_table

            table = cached_link_table(
                self._topology.positions,
                self._channel_model,
                frame_bytes,
                interference=self._interference,
            )
            self._links_cache[frame_bytes] = table
        return table

    def _minicast_round(
        self, links: LinkTable, plan: PhasePlan
    ) -> MiniCastRound:
        """A (cached) MiniCast round executor for one phase configuration.

        :class:`MiniCastRound` is stateless across ``run`` calls, so one
        instance per (links, schedule, policy) can serve every round of a
        campaign — its construction-time receive-order precomputation is
        the part worth not repeating.
        """
        if not fastpath.enabled():
            return MiniCastRound(
                links,
                plan.schedule,
                capture=self._config.capture,
                policy=plan.policy,
                tx_probability=self._config.tx_probability,
            )
        key = (
            "round",
            plan.schedule,
            plan.policy,
            self._config.capture,
            self._config.tx_probability,
        )
        cached = links.derived_cache.get(key)
        if cached is None:
            cached = MiniCastRound(
                links,
                plan.schedule,
                capture=self._config.capture,
                policy=plan.policy,
                tx_probability=self._config.tx_probability,
            )
            links.derived_cache[key] = cached
        return cached

    def codec(self, node: int):
        """The share codec (cipher + keys) node ``node`` was provisioned with."""
        existing = self._codec_cache.get(node)
        if existing is not None:
            return existing
        pool_key = None
        if fastpath.enabled():
            pool_key = (
                self._config.crypto_mode,
                node,
                self._topology.node_ids,
                self._config.master_secret,
                self._config.mac_tag_bytes,
            )
            pooled = _CODEC_POOL.get(pool_key)
            if pooled is not None:
                self._codec_cache[node] = pooled
                return pooled
        if self._config.crypto_mode is CryptoMode.REAL:
            built = RealShareCodec(
                node,
                self._topology.node_ids,
                self._config.master_secret,
                tag_bytes=self._config.mac_tag_bytes,
            )
        else:
            built = StubShareCodec(node, tag_bytes=self._config.mac_tag_bytes)
        self._codec_cache[node] = built
        if pool_key is not None:
            if len(_CODEC_POOL) >= _CODEC_POOL_MAX:
                _CODEC_POOL.clear()
            _CODEC_POOL[pool_key] = built
        return built

    # -- variant hooks -------------------------------------------------------------

    def destinations(self, sources: Sequence[int]) -> list[int]:
        """Share destinations (every node for S3, collectors for S4)."""
        raise NotImplementedError

    def chain_sources(self, sources: Sequence[int]) -> list[int]:
        """Which nodes get a sub-slot row reserved in the sharing chain.

        S4 constructs the chain from bootstrapping knowledge, so only
        actual sources get rows.  The naive S3 chain is static TDMA — "the
        chain size is extended to contain n² sub-slots" — so every node
        owns a row whether it sources data this round or not; unfilled
        sub-slots are silence but still occupy airtime.
        """
        return list(sources)

    def sharing_plan(self, layout: ChainLayout) -> PhasePlan:
        """Schedule + policy of the sharing phase."""
        raise NotImplementedError

    def reconstruction_plan(self, layout: ChainLayout) -> PhasePlan:
        """Schedule + policy of the reconstruction phase."""
        raise NotImplementedError

    @property
    def variant_name(self) -> str:
        """Short name used in reports ("S3"/"S4")."""
        raise NotImplementedError

    def _round_const(self, key: tuple, build):
        """One pooled round constant: built on first use, then reused."""
        value = self._round_consts.get(key)
        if value is None:
            value = build()
            if len(self._round_consts) >= _ROUND_CONST_MAX:
                self._round_consts.clear()
            self._round_consts[key] = value
        return value

    def _sharing_constants(
        self, layout: ChainLayout, sources: list[int], destinations: list[int]
    ) -> tuple[
        Sequence[int], dict[int, int], dict[int, Requirement], dict[int, list[int]]
    ]:
        """Per-round sharing-phase constants of one chain.

        Only rows of actual sources carry data; reserved-but-unfilled
        rows (naive static chains) are silence nobody can receive, so
        requirements mask down to the filled sub-slots.  The destination
        points come as machine words where they fit, so each dealer's
        native evaluation copies them instead of converting them.
        """
        destination_points = [
            self._registry.point_of(dst).value for dst in destinations
        ]
        with contextlib.suppress(OverflowError):
            destination_points = array("Q", destination_points)
        filled = 0
        for src in sources:
            filled |= layout.source_mask(src)
        source_set = set(sources)
        initial = {
            node: (layout.source_mask(node) if node in source_set else 0)
            for node in self._topology.node_ids
        }
        requirements = {
            dst: Requirement.all_of(layout.destination_mask(dst) & filled)
            for dst in destinations
        }
        index_rows = {
            src: [layout.index_of(src, dst) for dst in destinations]
            for src in sources
        }
        return destination_points, initial, requirements, index_rows

    # -- the round ----------------------------------------------------------------

    def run(
        self,
        secrets: Mapping[int, int],
        seed: int,
        sharing_failures: Mapping[int, int] | None = None,
        reconstruction_failures: Mapping[int, int] | None = None,
    ) -> RoundMetrics:
        """Execute one full aggregation round.

        Args:
            secrets: source node → secret value.
            seed: round seed; drives both crypto and channel randomness
                through independent streams.
            sharing_failures: node → sharing chain-slot at which it dies.
            reconstruction_failures: same for the reconstruction phase.
        """
        config = self._config
        field = config.field
        degree = config.degree
        sources = sorted(secrets)
        if not sources:
            raise ProtocolError("no sources given")
        unknown = [s for s in sources if s not in self._topology]
        if unknown:
            raise ProtocolError(f"sources not in topology: {unknown}")
        if len(sources) != len(set(sources)):
            raise ProtocolError("duplicate sources")

        destinations = self.destinations(sources)
        if len(destinations) < config.threshold:
            raise ProtocolError(
                f"{len(destinations)} destinations cannot reach threshold "
                f"{config.threshold}"
            )

        round_nonce = seed & ((1 << 64) - 1)
        dealer_root = AesCtrDrbg.from_seed(f"round-{seed}")

        # 1+2. Deal polynomials and build the encrypted sub-slot payloads.
        chain_sources = self.chain_sources(sources)
        layout = _pooled_layout(
            ("sharing", tuple(chain_sources), tuple(destinations)),
            lambda: ChainLayout.sharing(chain_sources, destinations),
        )
        consts_key = (tuple(chain_sources), tuple(destinations), tuple(sources))
        destination_points, initial, requirements, index_rows = self._round_const(
            consts_key,
            lambda: self._sharing_constants(layout, sources, destinations),
        )
        use_batch_crypto = False
        if fastpath.enabled() and len(sources) * len(destinations) >= BATCH_THRESHOLD:
            if config.crypto_mode is CryptoMode.REAL:
                use_batch_crypto = (
                    _batch_crypto_available()
                    and self.codec(sources[0]).supports_batch()
                )
            else:
                # The stub pipeline batches in pure ints, so no
                # availability guard.
                use_batch_crypto = self.codec(sources[0]).supports_batch()
        use_lanes = use_batch_crypto and config.crypto_mode is CryptoMode.REAL
        payloads: dict[int, SharePacket] = {}
        plaintexts: list[int] = []
        batch_entries: list[tuple] = []
        batch_indices: list[int] = []
        # The per-dealer forks collapse into one buffered parent read and
        # their keystream is prefetched in one call — stream-identical to
        # forking and drawing dealer by dealer.
        dealers = dealer_root.fork_many([f"dealer-{src}" for src in sources])
        bytes_per_draw = (field.prime.bit_length() + 7) // 8
        AesCtrDrbg.prefill_many(dealers, degree * bytes_per_draw + 8)
        for src, dealer in zip(sources, dealers):
            polynomial = Polynomial.random_with_secret(
                field, secrets[src], degree, dealer
            )
            # Bulk raw-int evaluation: one Horner pass per destination
            # without a FieldElement per product.
            values = polynomial.evaluate_values(destination_points)
            src_codec = self.codec(src)
            for dst, value_int, index in zip(destinations, values, index_rows[src]):
                if dst == src:
                    # A node's share to itself never leaves the node; the
                    # sub-slot still exists (and costs airtime) in the
                    # naive static chain, but carries no cipher work.
                    payloads[index] = SharePacket(
                        source=src,
                        destination=dst,
                        ciphertext=value_int.to_bytes(16, "big"),
                        tag=b"",
                    )
                elif use_lanes:
                    # Lane order is this loop's order (see LanePlan).
                    plaintexts.append(value_int)
                elif use_batch_crypto:
                    batch_entries.append((src_codec, dst, value_int))
                    batch_indices.append(index)
                else:
                    payloads[index] = src_codec.encrypt_share(
                        dst, FieldElement(field, value_int), round_nonce
                    )
        sealed = None
        if plaintexts:
            sealed = batch_encrypt_shares(
                plaintexts,
                self._lane_plan(consts_key, layout, sources, destinations),
                round_nonce,
            )
        if batch_entries:
            batch_packets = stub_batch_encrypt(batch_entries, round_nonce)
            for index, packet in zip(batch_indices, batch_packets):
                payloads[index] = packet

        # 3. Sharing phase.
        plan = self.sharing_plan(layout)
        links = self.links_for(
            config.timings.phy_overhead_bytes + layout.psdu_bytes
        )
        sharing_round = self._minicast_round(links, plan)
        sharing_result = sharing_round.run(
            random.Random(stable_seed(seed, "sharing")),
            initial_knowledge=initial,
            requirements=requirements,
            initiators=[sources[0]],
            failures=sharing_failures,
            arm_schedule=arm_offsets(links, sources[0]),
        )

        failed_in_sharing = set(sharing_result.failures)
        alive_after_sharing = set(self._topology.node_ids) - failed_in_sharing

        # Decrypt and fold into per-point sums.
        if sealed is not None:
            accumulators = self._fold_lanes(
                sealed,
                payloads,
                layout,
                destinations,
                sharing_result.knowledge,
                alive_after_sharing,
                round_nonce,
            )
        else:
            accumulators = self._fold_packets(
                payloads,
                layout,
                destinations,
                sharing_result.knowledge,
                alive_after_sharing,
                round_nonce,
                use_batch_crypto and not use_lanes,
            )

        if not accumulators:
            raise ProtocolError(
                "no destination received a single share; the sharing NTX "
                "is catastrophically low for this deployment"
            )

        # 4. Reconstruction phase.
        holders = sorted(accumulators)
        num_nodes = max(self._topology.node_ids) + 1
        recon_layout = _pooled_layout(
            ("reconstruction", tuple(holders), num_nodes, field.element_size_bytes),
            lambda: ChainLayout.reconstruction(
                holders, num_nodes=num_nodes, element_size=field.element_size_bytes
            ),
        )
        sum_payloads: dict[int, bytes] = {}
        for holder in holders:
            accumulator = accumulators[holder]
            sum_payloads[recon_layout.index_of(holder, None)] = encode_sum_packet(
                accumulator.total,
                accumulator.contributors,
                num_nodes=num_nodes,
                element_size=field.element_size_bytes,
            )

        recon_plan = self.reconstruction_plan(recon_layout)
        recon_links = self.links_for(
            config.timings.phy_overhead_bytes + recon_layout.psdu_bytes
        )
        recon_round = self._minicast_round(recon_links, recon_plan)
        recon_initial = {
            node: (
                recon_layout.source_mask(node) if node in accumulators else 0
            )
            for node in self._topology.node_ids
        }
        recon_requirement = Requirement.count_of(
            recon_layout.full_mask(), min(config.threshold, len(holders))
        )
        recon_requirements = {
            node: recon_requirement for node in alive_after_sharing
        }
        recon_result = recon_round.run(
            random.Random(stable_seed(seed, "reconstruction")),
            initial_knowledge=recon_initial,
            requirements=recon_requirements,
            initiators=[holders[0]],
            alive=alive_after_sharing,
            failures=reconstruction_failures,
            arm_schedule=arm_offsets(recon_links, holders[0]),
        )

        # 5. Per-node reconstruction and metrics.
        return self._assemble_metrics(
            secrets=secrets,
            sources=sources,
            layout=layout,
            recon_layout=recon_layout,
            sum_payloads=sum_payloads,
            sharing_result=sharing_result,
            recon_result=recon_result,
        )

    # -- sharing-phase fold --------------------------------------------------------

    def _lane_plan(
        self,
        consts_key: tuple,
        layout: ChainLayout,
        sources: list[int],
        destinations: list[int],
    ) -> LanePlan:
        """The REAL lane plan of one chain, pooled with the round constants.

        The first call also builds the engine's :class:`PairKeyTable`
        from its codecs — the commissioning step of the batched path.
        """
        if self._pair_keys is None:
            self._pair_keys = PairKeyTable(
                {node: self.codec(node) for node in self._topology.node_ids}
            )
        return self._round_const(
            ("lanes",) + consts_key,
            lambda: LanePlan(self._pair_keys, sources, destinations, layout),
        )

    def _fold_lanes(
        self,
        sealed: ShareLanes,
        payloads: dict[int, SharePacket],
        layout: ChainLayout,
        destinations: list[int],
        knowledge: Mapping[int, int],
        alive: set[int],
        round_nonce: int,
    ) -> dict[int, ShareAccumulator]:
        """Per-destination share sums of a lane round.

        Every delivered foreign lane is authenticated and decrypted in
        one batch; ``payloads`` holds only the self-shares.
        """
        field = self._config.field
        plan = sealed.plan
        views = [
            knowledge[dst] & layout.destination_mask(dst) if dst in alive else 0
            for dst in destinations
        ]
        totals = [0] * len(destinations)
        contributors = [0] * len(destinations)
        delivered = plan.delivered(views)
        if len(delivered):
            lane_rows = plan.row
            lane_sources = plan.source
            for lane, value in zip(
                delivered, batch_decrypt_values(delivered, sealed, field, round_nonce)
            ):
                if value is not None:  # None: corrupted/forged packet, dropped
                    row = lane_rows[lane]
                    totals[row] += value
                    contributors[row] |= 1 << lane_sources[lane]
        rows = {dst: row for row, dst in enumerate(destinations)}
        for index, packet in payloads.items():
            row = rows[packet.destination]
            if (views[row] >> index) & 1:
                totals[row] += int.from_bytes(packet.ciphertext, "big")
                contributors[row] |= 1 << packet.source
        return {
            dst: ShareAccumulator(
                x=self._registry.point_of(dst),
                total=FieldElement(field, totals[row] % field.prime),
                contributors=contributors[row],
            )
            for row, dst in enumerate(destinations)
            if contributors[row]
        }

    def _fold_packets(
        self,
        payloads: dict[int, SharePacket],
        layout: ChainLayout,
        destinations: list[int],
        knowledge: Mapping[int, int],
        alive: set[int],
        round_nonce: int,
        stub_batch: bool,
    ) -> dict[int, ShareAccumulator]:
        """Per-destination share sums from per-packet payloads.

        Serves the STUB batch and the per-packet codec.
        """
        field = self._config.field
        accumulators: dict[int, ShareAccumulator] = {}
        prime = field.prime
        element_size = field.element_size_bytes
        decrypted_batch: dict[int, int | None] = {}
        if stub_batch:
            # Gather every delivered foreign share across all destinations
            # and check + un-pad them in one pass.
            gather_entries = []
            gather_indices = []
            for dst in destinations:
                if dst not in alive:
                    continue
                dst_codec = self.codec(dst)
                view = knowledge[dst] & layout.destination_mask(dst)
                while view:
                    low_bit = view & -view
                    index = low_bit.bit_length() - 1
                    view ^= low_bit
                    packet = payloads[index]
                    if packet.source != dst:
                        gather_entries.append((dst_codec, packet))
                        gather_indices.append(index)
            if gather_entries:
                decoded_values = stub_batch_decrypt(
                    gather_entries, field, round_nonce
                )
                for index, value in zip(gather_indices, decoded_values):
                    decrypted_batch[index] = value
        for dst in destinations:
            if dst not in alive:
                continue
            dst_codec = self.codec(dst)
            view = knowledge[dst] & layout.destination_mask(dst)
            # Raw-int running sum plus a contributor bitmap; the
            # FieldElement is built once per accumulator, not per share.
            total = 0
            contributors = 0
            while view:
                low_bit = view & -view
                index = low_bit.bit_length() - 1
                view ^= low_bit
                packet = payloads[index]
                try:
                    if packet.source == dst:
                        value = field.element_from_bytes(
                            packet.ciphertext[-element_size:]
                        ).value
                    elif stub_batch:
                        value = decrypted_batch.get(index)
                        if value is None:
                            continue  # corrupted/forged packet: drop
                    else:
                        value = dst_codec.decrypt_share(
                            packet, field, round_nonce
                        ).value
                except (CryptoError, FieldError):
                    continue  # corrupted/forged packet: drop
                total += value
                contributors |= 1 << packet.source
            if contributors:
                accumulators[dst] = ShareAccumulator(
                    x=self._registry.point_of(dst),
                    total=FieldElement(field, total % prime),
                    contributors=contributors,
                )
        return accumulators

    # -- metric assembly -------------------------------------------------------

    def _assemble_metrics(
        self,
        secrets: Mapping[int, int],
        sources: list[int],
        layout: ChainLayout,
        recon_layout: ChainLayout,
        sum_payloads: dict[int, bytes],
        sharing_result: MiniCastResult,
        recon_result: MiniCastResult,
    ) -> RoundMetrics:
        config = self._config
        field = config.field
        degree = config.degree
        num_nodes = max(self._topology.node_ids) + 1
        expected = field.sum(secrets[s] for s in sources)
        sharing_duration = sharing_result.schedule.round_duration_us
        all_failures = dict(sharing_result.failures)
        all_failures.update(recon_result.failures)

        # The reconstruction a node performs depends only on its final
        # view of the sum chain; after a healthy flood most nodes share
        # the full view, so memoising per distinct view collapses n
        # interpolations into one or two.  Decoded packets are likewise
        # shared across every node that received the same sub-slot.
        decoded_cache: dict[int, ShareAccumulator] = {}
        outcome_cache: dict[int, tuple] = {}

        def decode_view(view: int) -> tuple:
            sums: list[ShareAccumulator] = []
            bits = view
            while bits:
                low_bit = bits & -bits
                index = low_bit.bit_length() - 1
                bits ^= low_bit
                decoded = decoded_cache.get(index)
                if decoded is None:
                    holder = recon_layout.spec(index).source
                    value, contributors = decode_sum_packet(
                        sum_payloads[index],
                        field,
                        num_nodes=num_nodes,
                        element_size=field.element_size_bytes,
                    )
                    decoded = ShareAccumulator(
                        x=self._registry.point_of(holder),
                        total=value,
                        contributors=contributors,
                    )
                    decoded_cache[index] = decoded
                sums.append(decoded)
            try:
                result = reconstruct_aggregate(field, sums, degree)
            except (ReconstructionError, ProtocolError):
                result = None
            if result is None:
                return (None, frozenset(), False)
            aggregate = result.value.value
            contributors = result.contributors
            truth = field.sum(secrets[s] for s in contributors if s in secrets)
            correct = (
                bool(contributors)
                and contributors <= frozenset(sources)
                and aggregate == truth.value
            )
            return (aggregate, contributors, correct)

        per_node: dict[int, NodeMetrics] = {}
        for node in self._topology.node_ids:
            tx_us = sharing_result.tx_us.get(node, 0) + recon_result.tx_us.get(
                node, 0
            )
            rx_us = sharing_result.rx_us.get(node, 0) + recon_result.rx_us.get(
                node, 0
            )
            aggregate: int | None = None
            contributors: frozenset[int] = frozenset()
            correct = False
            latency: int | None = None

            dead = node in all_failures
            if not dead:
                view = recon_result.knowledge.get(node, 0)
                outcome = outcome_cache.get(view)
                if outcome is None:
                    outcome = decode_view(view)
                    outcome_cache[view] = outcome
                aggregate, contributors, correct = outcome
                if aggregate is not None:
                    completion = recon_result.completion_us(node)
                    if completion is not None:
                        latency = sharing_duration + completion

            per_node[node] = NodeMetrics(
                node=node,
                latency_us=latency,
                radio_on_us=tx_us + rx_us,
                tx_us=tx_us,
                rx_us=rx_us,
                aggregate=aggregate,
                contributors=contributors,
                correct=correct,
            )

        return RoundMetrics(
            per_node=per_node,
            expected_aggregate=expected.value,
            sources=frozenset(sources),
            sharing_duration_us=sharing_duration,
            reconstruction_duration_us=recon_result.schedule.round_duration_us,
            sharing_slots=sharing_result.schedule.num_slots,
            reconstruction_slots=recon_result.schedule.num_slots,
            chain_length_sharing=len(layout),
            chain_length_reconstruction=len(recon_layout),
            failures=all_failures,
        )
