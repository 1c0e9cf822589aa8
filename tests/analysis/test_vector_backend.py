"""The ``REPRO_VECTOR`` backend must be invisible in campaign results.

The backend only swaps kernels whose outputs are bit-identical (lane
CTR keystream, batched dealer forks, the dealt-share pool), so a whole
campaign must produce *exactly* the same figures with it on or off —
and the serial ≡ parallel bit-identity contract must keep holding with
it enabled (spawn workers replay the parent's vector flag through
``WorkerState``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import fastpath
from repro.analysis.campaign import (
    WorkerState,
    apply_worker_state,
    current_worker_state,
)
from repro.core.config import CryptoMode
from repro.scenarios import Figure1Spec, Session


def campaign_figures(metrics="full"):
    spec = Figure1Spec(iterations=2, seed=11, crypto_mode=CryptoMode.STUB, sizes=(3, 6))
    with Session(metrics=metrics) as session:
        result = session.run(spec).payload
    return [
        (
            point.num_nodes,
            point.s3_latency_ms,
            point.s4_latency_ms,
            point.s3_radio_ms,
            point.s4_radio_ms,
            point.s3_success,
            point.s4_success,
        )
        for point in result.points
    ]


class TestVectorNeutrality:
    def test_campaign_identical_vector_on_and_off(self):
        with fastpath.forced(True), fastpath.forced_vector(True):
            fastpath.clear_process_caches()
            with_vector = campaign_figures()
        with fastpath.forced(True), fastpath.forced_vector(False):
            fastpath.clear_process_caches()
            without_vector = campaign_figures()
        assert with_vector == without_vector

    def test_dealt_share_pool_hits_are_bit_identical(self):
        # Second identical campaign replays dealt shares from the pool;
        # the figures must not move by a single bit.
        with fastpath.forced(True), fastpath.forced_vector(True):
            fastpath.clear_process_caches()
            cold = campaign_figures()
            warm = campaign_figures()
        assert cold == warm

    def test_streaming_summary_identical_with_vector(self):
        with fastpath.forced(True), fastpath.forced_vector(True):
            fastpath.clear_process_caches()
            full = campaign_figures(metrics="full")
            summary = campaign_figures(metrics="summary")
        assert full == summary


class TestWorkerStateReplay:
    def test_worker_state_carries_vector_flag(self):
        with fastpath.forced_vector(False):
            state = current_worker_state()
        assert state.vector_enabled is False
        with fastpath.forced_vector(True):
            state = current_worker_state()
        assert state.vector_enabled is True

    def test_apply_worker_state_replays_vector_flag(self):
        state = current_worker_state()
        previous = fastpath.vector_enabled()
        try:
            apply_worker_state(dataclasses.replace(state, vector_enabled=False))
            assert fastpath.vector_enabled() is False
            apply_worker_state(dataclasses.replace(state, vector_enabled=True))
            assert fastpath.vector_enabled() is True
        finally:
            fastpath.set_vector_enabled(previous)

    def test_worker_state_is_complete(self):
        # Every runtime switch a spawn worker needs must live here; this
        # breaks loudly if a field is added without replay coverage.
        fields = {f.name for f in dataclasses.fields(WorkerState)}
        assert fields == {
            "fastpath_enabled",
            "disk_cache_enabled",
            "cache_dir",
            "vector_enabled",
        }


@pytest.mark.parametrize("workers", [2])
def test_serial_parallel_identity_with_vector(workers):
    # Spot check: with the backend forced on, a 2-worker spawn pool must
    # reproduce the serial figures bit-for-bit (WorkerState replay).
    spec = Figure1Spec(iterations=2, seed=13, crypto_mode=CryptoMode.STUB, sizes=(3, 6))
    with fastpath.forced(True), fastpath.forced_vector(True):
        with Session(workers=1) as session:
            serial = session.run(spec).payload
        with Session(workers=workers) as session:
            parallel = session.run(spec).payload
    assert serial == parallel
