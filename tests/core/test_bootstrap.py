"""Tests for the S4 bootstrapping phase."""

from __future__ import annotations

import contextlib
import hashlib

import pytest

from repro import diskcache, fastpath, native
from repro.analysis.experiments import build_engines
from repro.core.bootstrap import (
    bootstrap_s4,
    network_depth,
    profile_completion_slots,
    quantile,
)
from repro.core.config import CryptoMode
from repro.ct.coverage import profile_coverage
from repro.ct.minicast import MiniCastRound, Requirement
from repro.ct.packet import ChainLayout, sharing_psdu_bytes
from repro.ct.slots import RoundSchedule
from repro.errors import BootstrapError
from repro.phy.radio import NRF52840_154
from repro.topology.testbeds import dcube, flocklab


class TestQuantile:
    def test_median(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3

    def test_max(self):
        assert quantile([5, 1, 3], 1.0) == 5

    def test_nearest_rank(self):
        assert quantile([1, 2, 3, 4], 0.95) == 4
        assert quantile([1, 2, 3, 4], 0.75) == 3

    def test_invalid(self):
        with pytest.raises(BootstrapError):
            quantile([], 0.5)
        with pytest.raises(BootstrapError):
            quantile([1], 0.0)
        with pytest.raises(BootstrapError):
            quantile([1], 1.1)


class TestNetworkDepth:
    def test_line_depth(self, line5_links):
        assert network_depth(line5_links) == 4

    def test_grid_depth(self, grid9_links):
        assert 1 <= network_depth(grid9_links) <= 4


class TestProfileCompletion:
    def test_records_one_value_per_iteration(self, grid9_links):
        nodes = grid9_links.node_ids
        layout = ChainLayout.reconstruction(nodes, num_nodes=len(nodes))
        schedule = RoundSchedule.plan(
            chain_length=len(layout),
            psdu_bytes=layout.psdu_bytes,
            ntx=4,
            depth_hint=2,
            timings=NRF52840_154,
        )
        round_ = MiniCastRound(grid9_links, schedule)
        initial = {n: layout.source_mask(n) for n in nodes}
        requirements = {
            n: Requirement.all_of(layout.full_mask()) for n in nodes[:3]
        }
        slots = profile_completion_slots(
            round_,
            initial_knowledge=initial,
            requirements=requirements,
            initiators=[nodes[0]],
            iterations=5,
            seed=1,
        )
        assert len(slots) == 5
        assert all(0 <= s <= schedule.num_slots for s in slots)

    def test_satisfy_count_lower_is_earlier(self, grid9_links):
        nodes = grid9_links.node_ids
        layout = ChainLayout.reconstruction(nodes, num_nodes=len(nodes))
        schedule = RoundSchedule.plan(
            chain_length=len(layout),
            psdu_bytes=layout.psdu_bytes,
            ntx=4,
            depth_hint=2,
            timings=NRF52840_154,
        )
        round_ = MiniCastRound(grid9_links, schedule)
        initial = {n: layout.source_mask(n) for n in nodes}
        requirements = {
            n: Requirement.all_of(layout.full_mask()) for n in nodes[:4]
        }
        common = dict(
            initial_knowledge=initial,
            requirements=requirements,
            initiators=[nodes[0]],
            iterations=6,
            seed=2,
        )
        first = profile_completion_slots(round_, satisfy_count=1, **common)
        last = profile_completion_slots(round_, satisfy_count=4, **common)
        assert sum(first) <= sum(last)

    def test_bad_satisfy_count(self, grid9_links):
        nodes = grid9_links.node_ids
        layout = ChainLayout.reconstruction(nodes, num_nodes=len(nodes))
        schedule = RoundSchedule.plan(
            chain_length=len(layout), psdu_bytes=layout.psdu_bytes,
            ntx=2, depth_hint=2, timings=NRF52840_154,
        )
        round_ = MiniCastRound(grid9_links, schedule)
        initial = {n: layout.source_mask(n) for n in nodes}
        requirements = {0: Requirement.all_of(1)}
        with pytest.raises(BootstrapError):
            profile_completion_slots(
                round_, initial, requirements, [nodes[0]],
                iterations=1, seed=0, satisfy_count=5,
            )


class TestBootstrapS4:
    def test_end_to_end(self, grid9_links):
        result = bootstrap_s4(
            links=grid9_links,
            timings=NRF52840_154,
            sources=list(grid9_links.node_ids),
            num_collectors=4,
            sharing_ntx=4,
            iterations=6,
            collector_threshold=0.5,
        )
        assert len(result.collectors) == 4
        assert result.sharing_slots >= 1
        assert result.network_depth >= 1

    def test_sharing_slots_bounded_by_generous(self, grid9_links):
        result = bootstrap_s4(
            links=grid9_links,
            timings=NRF52840_154,
            sources=list(grid9_links.node_ids),
            num_collectors=4,
            sharing_ntx=4,
            iterations=6,
            collector_threshold=0.5,
        )
        from repro.ct.slots import round_slots

        assert result.sharing_slots <= round_slots(4, result.network_depth)


# -- literal commissioning pins ---------------------------------------------
#
# What commissioning hands the runtime protocol, taken from the Python
# reference loop before its C twin existed.  Each pin must hold on the C
# reference, with the native library missing and on the seed path.


@pytest.fixture(params=["native", "no-library", "reference-path"])
def commissioning_path(request, monkeypatch):
    """Each case once on the C reference loop (where the library builds),
    once with the loader finding nothing and once with the fast path off;
    no commissioning cache on disk or in the process serves a result."""
    monkeypatch.setattr(diskcache, "_enabled_override", False)
    if request.param == "no-library":
        monkeypatch.setattr(native, "library", lambda: None)
    forced = fastpath.forced(False) if request.param == "reference-path" else contextlib.nullcontext()
    with forced:
        fastpath.clear_process_caches()
        yield request.param
    fastpath.clear_process_caches()


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


def stats_digest(stats) -> str:
    return digest(
        (
            stats.ntx,
            sorted(stats.pair_delivery.items()),
            stats.mean_delivery,
            stats.full_coverage_fraction,
            stats.mean_reachable,
            stats.slots_run_mean,
        )
    )


#: testbed -> (collectors, sharing NTX, sharing slots, reconstruction
#: slots, network depth, digest of the sharing-NTX coverage statistics).
S4_COMMISSIONING = {
    "dcube": (
        tuple(range(18)), 7, 17, 31, 4, "017028ed55dfac732ae29feb46caa2e4",
    ),
    "flocklab": (
        tuple(range(3, 14)), 7, 21, 32, 5, "d982bf8842a0211e7bd6a3d604a0a95e",
    ),
}


@pytest.mark.parametrize("name", list(S4_COMMISSIONING))
def test_s4_commissioning_is_pinned(commissioning_path, name):
    _, engine = build_engines({"dcube": dcube, "flocklab": flocklab}[name](), CryptoMode.STUB)
    nodes = engine.topology.node_ids
    collectors = engine.destinations(nodes)
    bootstrap = engine.bootstrap_for(nodes)
    sharing = engine.sharing_plan(ChainLayout.sharing(sorted(nodes), collectors)).schedule
    reconstruction = engine.reconstruction_plan(
        ChainLayout.reconstruction(collectors, num_nodes=len(nodes))
    ).schedule
    assert (
        tuple(collectors),
        sharing.ntx,
        sharing.num_slots,
        reconstruction.num_slots,
        bootstrap.network_depth,
        stats_digest(bootstrap.coverage),
    ) == S4_COMMISSIONING[name]


def test_profile_coverage_is_pinned(commissioning_path):
    _, engine = build_engines(flocklab(), CryptoMode.STUB)
    links = engine.links_for(NRF52840_154.phy_overhead_bytes + sharing_psdu_bytes())
    ntx_values = (1, 2, 4, 8)
    profile = profile_coverage(
        links,
        NRF52840_154,
        ntx_values=ntx_values,
        depth_hint=network_depth(links),
        iterations=4,
        seed=7,
    )
    assert profile.min_full_coverage_ntx() == 8
    assert digest([stats_digest(profile.at(ntx)) for ntx in ntx_values]) == (
        "1870911ea38436bf0163bfd02410aeef"
    )
