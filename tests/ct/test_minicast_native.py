"""MiniCast's fast slot loop: the native kernel, the Python loop, and
the seeded stream both must reproduce.

The fast loop's rng stream is part of the reproduction's contract: the
benchmark's pinned rounds and its stub-crypto replay both assume a seed
reproduces a round exactly.  Three layers of evidence:

* **pins** — each case hashes the full result of one run together with
  the ``random.Random`` state it leaves behind, so a loop that draws one
  number more, one fewer or in another order fails even when its
  statistics look right; every pin holds with the kernel and without;
* **equivalence** — on random networks and inputs, the kernel and the
  Python loop agree on every result field and on the final rng state;
* **fallback** — a round the kernel cannot run exactly takes the Python
  loop (how the shared library builds, caches and fails is tested once,
  in ``tests/native/test_loader.py``).
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.analysis.experiments import build_engines, round_secrets
from repro.core.config import CryptoMode
from repro.ct import native
from repro.ct.minicast import MiniCastRound, RadioOffPolicy, Requirement
from repro.errors import ConfigurationError
from repro.ct.slots import RoundSchedule
from repro.phy.capture import CaptureModel
from repro.phy.radio import NRF52840_154
from repro.topology.testbeds import dcube


def digest(result, rng) -> str:
    payload = (
        result.knowledge,
        result.completion_slot,
        result.tx_us,
        result.rx_us,
        result.radio_off_slot,
        result.slots_run,
        result.failures,
        rng.getstate(),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:32]


class StubLinks:
    """Just what :class:`MiniCastRound` reads of a link table."""

    def __init__(self, prr: dict[tuple[int, int], float]):
        self.node_ids = tuple(sorted({a for a, _ in prr}))
        self._prr = prr

    def prr_row(self, src: int) -> dict[int, float]:
        return {dst: self._prr[src, dst] for dst in self.node_ids if dst != src}


@pytest.fixture(params=["kernel", "python"])
def slot_loop(request, monkeypatch):
    """Run each case once with the native kernel (where it builds) and
    once with the Python slot loop."""
    if request.param == "python":
        monkeypatch.setattr(native, "minicast_kernel", lambda: None)
    return request.param


#: Sharing and reconstruction phase of S4 on D-Cube, stub crypto, round
#: seeds 0-4, in run order.
DCUBE_PINS = [
    ("0784d93b8b4c782b05d12cb56202b70e", "56aae937f23421f32ad8a054800a9a1f"),
    ("510ce115a88583756798be5941c19bbc", "6bd2905c71411c5dcd7927acd1140289"),
    ("168c7e9380e2f875001c799f566dacaa", "7c18435e074793abeb4dbdf3c4fec0cb"),
    ("b6f22d41ce48df77292a2acdc17ce3f3", "990fbb60f303b9e702172bbb3e9872ae"),
    ("f6843c2e9381e92a0801cf2a5fa873af", "e3a4f3becc008c84c51d5bf5bba9f5f5"),
]


@pytest.fixture(scope="module")
def dcube_engine():
    with fastpath.forced(True):
        _, engine = build_engines(dcube(), CryptoMode.STUB)
        # Commissioning happens on the first round; its probes run the
        # reference loop and are not what these pins are about.
        engine.run(round_secrets(engine.topology.node_ids, 100), seed=100)
    return engine


@pytest.mark.parametrize("seed", range(5))
def test_dcube_s4_phases_are_pinned(dcube_engine, slot_loop, monkeypatch, seed):
    digests = []
    original = MiniCastRound.run

    def recording(self, rng, *args, **kwargs):
        result = original(self, rng, *args, **kwargs)
        digests.append(digest(result, rng))
        return result

    monkeypatch.setattr(MiniCastRound, "run", recording)
    nodes = dcube_engine.topology.node_ids
    with fastpath.forced(True):
        dcube_engine.run(round_secrets(nodes, seed), seed=seed)
    assert tuple(digests) == DCUBE_PINS[seed]


def lossy_links(num_nodes: int, seed: int) -> StubLinks:
    """A network of transitional links: every sampled mask is random."""
    rng = random.Random(seed)
    prr = {}
    for a in range(num_nodes):
        for b in range(num_nodes):
            if a != b:
                prr[a, b] = rng.choice((0.0, 0.2, 0.45, 0.7, 0.9, 0.97, 1.0))
    return StubLinks(prr)


LOSSY_PINS = {
    RadioOffPolicy.ALWAYS_ON: [
        "d7a72898f7ccf2e645f133b7c733283c",
        "799bcb7b2bf49e49e103f0dde3d98841",
        "a5c115d7c7c0258c8a7bffb1852d5369",
        "c389ac47adde53cb1163215d14e99bd1",
    ],
    RadioOffPolicy.EARLY_OFF: [
        "5bae89de3b05c334b5a3b8fa9c980b78",
        "b395358587c1c840490a649bfd5112ec",
        "a163a89c180e430823cc329d9e580e5b",
        "a9b46fa6cf4ce7ca5e55846150b1c81f",
    ],
}


@pytest.mark.parametrize("policy", list(LOSSY_PINS))
def test_lossy_synthetic_rounds_are_pinned(slot_loop, policy):
    links = lossy_links(12, seed=3)
    schedule = RoundSchedule(
        chain_length=70, psdu_bytes=15, ntx=3, num_slots=14, timings=NRF52840_154
    )
    with fastpath.forced(True):
        round_ = MiniCastRound(
            links, schedule, capture=CaptureModel(max_diversity=2), policy=policy
        )
    initial = {node: 0b11111 << (5 * node) for node in range(12) if node != 4}
    everything = (1 << 60) - 1
    requirements = {
        node: Requirement.all_of((1 << 15) - 1)
        if node % 2
        else Requirement.count_of(everything, 30)
        for node in range(12)
    }
    digests = []
    for seed in range(4):
        rng = random.Random(seed)
        result = round_.run(
            rng,
            initial,
            requirements=requirements,
            initiators=[0],
            alive=set(range(12)) - {7},
            failures={3: 2, 9: 5, 7: 1},
            arm_schedule={1: 1, 2: 2, 5: 3, 11: 4},
        )
        digests.append(digest(result, rng))
    assert digests == LOSSY_PINS[policy]


# -- equivalence ----------------------------------------------------------

#: PRRs that quantize to 0 (kept above a zero floor), to 1024, and between.
PRRS = (0.0, 0.0003, 0.2, 0.5, 0.77, 0.93, 0.9996, 1.0)
WIDTHS = (1, 18, 63, 64, 65, 810, 2000)


def outcome(result, rng) -> tuple:
    return (
        result.knowledge,
        result.completion_slot,
        result.tx_us,
        result.rx_us,
        result.radio_off_slot,
        result.slots_run,
        result.failures,
        list(result.failures),
        rng.getstate(),
    )


@st.composite
def flood_cases(draw, prrs=PRRS, widths=WIDTHS):
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = [5 + 3 * i for i in range(n)]
    chain_bits = draw(st.sampled_from(widths))
    full = (1 << chain_bits) - 1
    prr = {
        (a, b): draw(st.sampled_from(prrs)) for a in nodes for b in nodes if a != b
    }
    num_slots = draw(st.integers(min_value=1, max_value=12))
    schedule = RoundSchedule(
        chain_length=chain_bits,
        psdu_bytes=15,
        ntx=draw(st.integers(min_value=1, max_value=4)),
        num_slots=num_slots,
        timings=NRF52840_154,
    )
    capture = CaptureModel(
        max_diversity=draw(st.integers(min_value=1, max_value=3)),
        prr_floor=draw(st.sampled_from((0.0, 0.01))),
    )
    round_args = dict(
        capture=capture,
        policy=draw(st.sampled_from(list(RadioOffPolicy))),
        tx_probability=draw(st.sampled_from((0.5, 1.0))),
    )
    # Sub-slots are owned round-robin, as MiniCast chains are laid out.
    initial = {}
    for i, node in enumerate(nodes):
        owned = sum(1 << bit for bit in range(i, chain_bits, n))
        initial[node] = draw(st.integers(min_value=0, max_value=full)) & owned

    def requirement():
        mask = draw(st.integers(min_value=0, max_value=full))
        kind = draw(st.sampled_from(("all", "count", "nothing")))
        if kind == "all":
            return Requirement.all_of(mask)
        if kind == "count":
            return Requirement.count_of(
                mask, draw(st.integers(min_value=0, max_value=mask.bit_count()))
            )
        return Requirement(mask=0, min_count=0)

    some_nodes = st.lists(st.sampled_from(nodes), unique=True)
    slots = st.integers(min_value=-1, max_value=num_slots + 1)
    run_args = dict(
        initial_knowledge=initial,
        requirements={node: requirement() for node in draw(some_nodes)},
        initiators=draw(st.none() | some_nodes),
        alive=draw(st.none() | some_nodes.map(set)),
        failures=draw(st.dictionaries(st.sampled_from(nodes), slots)),
        arm_schedule=draw(st.dictionaries(st.sampled_from(nodes), slots)),
    )
    return StubLinks(prr), schedule, round_args, run_args


@pytest.fixture(scope="module")
def kernel():
    built = native.minicast_kernel()
    if built is None:
        pytest.skip("no C compiler: the Python loop is all there is")
    return built


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=flood_cases(), seed=st.integers(min_value=0, max_value=2**32))
def test_kernel_matches_python_loop(kernel, monkeypatch, case, seed):
    links, schedule, round_args, run_args = case
    with fastpath.forced(True):
        round_ = MiniCastRound(links, schedule, **round_args)
    calls = []

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    def run():
        rng = random.Random(seed)
        try:
            return outcome(round_.run(rng, **run_args), rng)
        except ConfigurationError as error:
            return str(error)

    monkeypatch.setattr(native, "minicast_kernel", lambda: counted)
    in_c = run()
    monkeypatch.setattr(native, "minicast_kernel", lambda: None)
    in_python = run()
    assert in_c == in_python
    assert len(calls) == (0 if isinstance(in_c, str) else 1)


# -- the reference loop in C ------------------------------------------------

#: PRRs at 0, at the 0.01 capture floor, quantizing to 0 and to 1024,
#: between, and 1; chain widths on and off 32-bit word boundaries.
REFERENCE_PRRS = (0.0, 0.0003, 0.01, 0.2, 0.5, 0.77, 0.93, 0.9996, 1.0)
REFERENCE_WIDTHS = (1, 7, 31, 32, 33, 64, 95, 129, 200)


@pytest.fixture(scope="module")
def reference_kernel():
    built = native.reference_kernel()
    if built is None:
        pytest.skip("no C compiler: the reference loop is all there is")
    return built


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    case=flood_cases(REFERENCE_PRRS, REFERENCE_WIDTHS),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_reference_kernel_matches_reference_loop(reference_kernel, monkeypatch, case, seed):
    links, schedule, round_args, run_args = case
    with fastpath.forced(True):
        round_ = MiniCastRound(links, schedule, force_reference=True, **round_args)
    calls = []

    def counted(*args):
        calls.append(1)
        return reference_kernel(*args)

    def run(loop):
        rng = random.Random(seed)
        try:
            return outcome(loop(rng, **run_args), rng)
        except ConfigurationError as error:
            return str(error)

    monkeypatch.setattr(native, "reference_kernel", lambda: counted)
    in_c = run(round_.run)
    in_python = run(round_._run_reference)
    assert in_c == in_python
    assert len(calls) == (0 if isinstance(in_c, str) else 1)


def test_reference_round_keeps_the_loop_where_the_kernel_cannot_run(monkeypatch):
    def refuse():
        raise AssertionError("this round must not reach the reference kernel")

    links = lossy_links(6, seed=1)
    schedule = RoundSchedule(
        chain_length=40, psdu_bytes=15, ntx=2, num_slots=8, timings=NRF52840_154
    )
    with fastpath.forced(True):
        native_round = MiniCastRound(links, schedule, force_reference=True)
    with fastpath.forced(False):
        seed_round = MiniCastRound(links, schedule, force_reference=True)
    links._prr[0, 1] = 1.5  # random_bitmask rejects it; so must the round
    with fastpath.forced(True):
        assert MiniCastRound(links, schedule, force_reference=True)._kernel is None
    expected = small_run(native_round, random.Random(4))

    class Recorded(random.Random):
        pass

    monkeypatch.setattr(native, "reference_kernel", refuse)
    assert small_run(native_round, Recorded(4)) == expected
    assert small_run(seed_round, random.Random(4)) == expected


# -- fallback ---------------------------------------------------------------


def small_round():
    links = lossy_links(6, seed=1)
    schedule = RoundSchedule(
        chain_length=40, psdu_bytes=15, ntx=2, num_slots=8, timings=NRF52840_154
    )
    with fastpath.forced(True):
        return MiniCastRound(links, schedule)


def small_run(round_, rng):
    initial = {node: 0b1111 << (4 * node) for node in range(6)}
    return outcome(round_.run(rng, initial), rng)


def test_random_subclass_takes_python_loop(monkeypatch):
    class Recorded(random.Random):
        pass

    def refuse():
        raise AssertionError("a Random subclass must not reach the kernel")

    round_ = small_round()
    monkeypatch.setattr(native, "minicast_kernel", lambda: None)
    expected = small_run(round_, random.Random(4))
    monkeypatch.setattr(native, "minicast_kernel", refuse)
    assert small_run(round_, Recorded(4)) == expected
