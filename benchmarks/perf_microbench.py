"""Performance microbenchmark: fast path vs. the seed-equivalent reference.

A plain script (NOT a pytest module — run it directly):

    PYTHONPATH=src python benchmarks/perf_microbench.py

It times three tiers and writes the results to ``BENCH_core.json`` at the
repository root so future PRs have a perf trajectory to compare against:

1. **Primitives** — AES-128 block throughput (reference vs. T-table vs.
   the native share-lane kernel), a round's packet protection (``batch_encrypt_shares``
   over ~790 pairwise-keyed lanes vs. per-packet ``encrypt_share``), DRBG
   keystream, Shamir split/reconstruct ops/sec (scalar vs. batched).
2. **Campaign, cold** — one `figure1` FlockLab sweep per crypto mode
   as the first fast-path run in the current process state: the fast path
   pays commissioning it has not yet amortised (bootstrap probes run the
   bit-identical reference loop; the REAL stage may legitimately reuse
   crypto-mode-independent commissioning from the STUB stage, exactly as
   a real deployment would).
3. **Campaign, steady state** — the same campaign run again in the same
   process.  The seed implementation recomputes everything per campaign;
   the fast path amortises commissioning artifacts (bootstrap
   measurements, link tables, key schedules, chain layouts) exactly the
   way a long-running aggregation service would.  The steady-state ratio
   is the headline number the acceptance targets refer to (≥5× STUB,
   ≥10× REAL).
4. **Campaign, parallel** — the same campaign fanned out over a
   4-worker :class:`repro.analysis.campaign.CampaignExecutor` (warmed
   pool, warm persisted commissioning cache) against the steady-state
   serial run.  The ≥2× wall-time target only applies on machines with
   ≥4 usable cores — the JSON records ``cpu_count`` so the regression
   gate can tell environments apart.
5. **Cold start** — fresh subprocesses run one REAL/STUB campaign with
   the persisted commissioning cache disabled, cold (empty dir) and warm
   (pre-populated dir).  The warm number is the cost of a freshly
   spawned campaign worker; the target is within 2× of steady state.
   (Each child imports the crypto modules before the clock starts, so
   the numbers isolate commissioning cost from interpreter/import cost.)
6. **Sharded campaign** — the same deployment aggregated as one flat
   MPC domain vs. sliced into cells with a cross-cell round
   (:mod:`repro.analysis.sharding`, MPC data path only).  Flat share
   fan-out costs O(n·degree²) with degree = n/3; cells cut the degree
   by the cell count, so the sharded form wins by construction — the
   tracked ``sharded_speedup`` guards that scale-out advantage, and the
   tier asserts the two forms produce bit-identical aggregates.

7. **DRBG bulk** — whole-buffer keystream and batched dealer-fork
   prefill: scalar T-table refills (what runs without the native
   library) vs the native keystream kernel, bit-identical output.
   ``lane_mib_per_sec`` is the native kernel's throughput.
8. **service_transport** — the socket transport against real shard
   processes: accepted shares/sec through journal-before-ack over TCP,
   the p99 per-share round trip, and the supervisor's shard-restart
   recovery time after a SIGKILL.  Absolute figures only, no speedup
   gate.
9. **service_wire** — the per-admission Python cost on either side of
   the socket: µs per call of ``encode_record``, ``decode_record``,
   ``frame`` and ``unframe`` on a SUBMIT record and an ADMISSION_REPLY,
   and of ``RetryPolicy.run`` on a first-try success.  Absolute figures
   only, no speedup gate.
10. **minicast** — ms per MiniCast phase of an S4 round on D-Cube
   (the sharing phase's 810-bit chain and the reconstruction phase's
   18-bit chain), with the native slot kernel and with the Python slot
   loop on the same inputs and seeds.  ``native_speedup`` is gated like
   every ``*speedup`` key, so a host that silently falls back to the
   Python loop fails the regression check.
11. **native_crypto** — the round's native kernels on the inputs one
   REAL S4 round on D-Cube hands them: ms per ``batch_encrypt_shares``
   seal (sender) and ``batch_decrypt_values`` open (receiver) call over
   the round's lanes, in C and through the per-packet codec; ms per
   round of the 45 dealers' ``evaluate_values`` calls, in C and in
   Python; ms per ``prefill_many`` over the round's 45 dealer forks and
   per 32-block DRBG refill (the fold's), in C and in scalar
   ``ctr_blocks``; and ms per round of the 45 ``random_with_secret``
   calls, with ``randrange_many`` and with the per-draw loop.  Each
   kernel's two figures are medians of three alternating pairs.  The
   fallback figures of seal, open, prefill and refill keep the
   ``*_numpy_ms`` names they had when numpy was the fallback.
   ``seal_speedup``, ``open_speedup``, ``evaluate_speedup``,
   ``prefill_speedup``, ``refill_speedup`` and ``draws_speedup`` are
   gated like every ``*speedup`` key.
12. **commissioning** — ms for one cold REAL S4 round on D-Cube (link
   tables, bootstrap, key schedules, the round), and its two kernels on
   that commissioning's inputs: the bootstrap's 40 reference-loop probe
   floods replayed in C and in Python, and the 45 share codecs' 3,960
   key schedules expanded in C and in Python.
   ``reference_flood_speedup`` and ``key_schedule_speedup`` are gated
   like every ``*speedup`` key.

The in-process campaign tiers (2+3) run with the disk cache disabled so
"cold" keeps meaning "first time in any process state"; tier 5 measures
the disk cache explicitly.

Environment knobs:

* ``REPRO_BENCH_ITERATIONS`` — campaign iterations per sweep point
  (default 2; CI smoke mode also uses 2).
* ``REPRO_BENCH_PARALLEL_ITERATIONS`` — iterations per sweep point for
  the parallel tier (default 8; larger units amortise IPC).
* ``REPRO_BENCH_WORKERS`` — worker count for the parallel tier
  (default 4, the acceptance configuration).
* ``REPRO_BENCH_SHARDED_NODES`` / ``REPRO_BENCH_SHARDED_CELLS`` —
  deployment size and cell count for the sharded tier (default 180 / 6).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

from repro import diskcache, fastpath, native
from repro.analysis.campaign import CampaignExecutor
from repro.core.config import CryptoMode
from repro.crypto.aes import AES128
from repro.crypto.prng import AesCtrDrbg
from repro.field.prime_field import PrimeField
from repro.scenarios import Figure1Spec, Session, ShardedSpec
from repro.sss.scheme import ShamirScheme
from repro.sss.aggregation import reconstruct_from_sums, reconstruct_many_from_sums
from repro.topology.testbeds import flocklab

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_core.json"


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` (seconds)."""
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@contextlib.contextmanager
def _without_native():
    """Within the block the native loader finds no library, so every
    kernel's Python twin runs."""
    loader = native.library
    native.library = lambda: None
    try:
        yield
    finally:
        native.library = loader


# -- tier 1: primitives --------------------------------------------------------


def bench_aes() -> dict:
    key = bytes(range(16))
    block = bytes.fromhex("00112233445566778899aabbccddeeff")
    fast = AES128(key, use_tables=True)
    reference = AES128(key, use_tables=False)
    n_fast, n_ref = 3000, 400

    t_fast = _best_of(lambda: [fast.encrypt_block(block) for _ in range(n_fast)]) / n_fast
    t_ref = _best_of(lambda: [reference.encrypt_block(block) for _ in range(n_ref)]) / n_ref

    result = {
        "reference_us_per_block": round(t_ref * 1e6, 2),
        "ttable_us_per_block": round(t_fast * 1e6, 2),
        "ttable_speedup": round(t_ref / t_fast, 2),
        "blocks_per_sec_ttable": int(1.0 / t_fast),
    }
    from repro.crypto import aesbatch

    if aesbatch.lanes_available():
        # The share-lane kernel over 4096 lanes under one key: each lane
        # is four AES blocks (one CTR, three CBC-MAC).  A short batch
        # makes the measured speedup flap by ±20% on a busy host — too
        # noisy for the regression gate; 4096 lanes and more repeats
        # keep the best-of wall time long enough to be stable.
        n_batch = 4096
        keys = array("I", fast._enc_words)
        columns = array("q", [0] * n_batch)
        ids = array("q", range(n_batch))
        data = array("Q", range(n_batch))
        t_batch = _best_of(
            lambda: aesbatch.ctr_cbc_mac(keys, keys, columns, ids, ids, 7, data, 1), repeats=7
        ) / (4 * n_batch)
        result["batched_us_per_block"] = round(t_batch * 1e6, 4)
        result["batched_speedup"] = round(t_ref / t_batch, 2)
        result.update(bench_packet_batch())
    return result


def bench_packet_batch() -> dict:
    """A REAL round's share protection: CTR + CBC-MAC over ~790 lanes.

    One S4 round on D-Cube protects ~790 share packets (45 sources × 18
    collectors, self-shares excluded), each under its own pairwise
    (encryption, MAC) key pair.  Timed the way a round calls it: the
    engine's pair key table and lane plan exist from commissioning, and
    ``batch_encrypt_shares`` takes the round's plaintexts.  Compared
    against ``encrypt_share`` per packet, the path a round takes without
    the native library.
    """
    from repro.core.payload import (
        LanePlan,
        PairKeyTable,
        RealShareCodec,
        batch_encrypt_shares,
    )
    from repro.ct.packet import ChainLayout
    from repro.field.prime_field import FieldElement, PrimeField

    nodes = list(range(45))
    destinations = nodes[:18]
    with fastpath.forced(True):
        codecs = {n: RealShareCodec(n, nodes, b"bench-master") for n in nodes}
    plan = LanePlan(
        PairKeyTable(codecs),
        nodes,
        destinations,
        ChainLayout.sharing(nodes, destinations),
    )
    field = PrimeField()
    rnd = random.Random(790)
    values = [rnd.randrange(field.prime) for _ in range(len(plan))]
    lanes = list(zip(plan.source, plan.destination, values))
    round_nonce = rnd.getrandbits(64)

    def per_packet():
        for source, destination, value in lanes:
            codecs[source].encrypt_share(
                destination, FieldElement(field, value), round_nonce
            )

    def batch():
        for _ in range(batch_calls):
            batch_encrypt_shares(values, plan, round_nonce)

    # Both paths once untimed, then in alternating repeats, so that a
    # slow or fast phase of the host lands on both sides of a pair; the
    # speedup is the median of the per-pair ratios.
    batch_calls = 10
    batch()
    per_packet()
    pairs = []
    for repeat in range(7):
        if repeat % 2:
            scalar_s = _timed(per_packet)
            batch_s = _timed(batch) / batch_calls
        else:
            batch_s = _timed(batch) / batch_calls
            scalar_s = _timed(per_packet)
        pairs.append((scalar_s, batch_s))
    t_scalar = statistics.median(scalar for scalar, _ in pairs) / len(plan)
    t_batch = statistics.median(batch for _, batch in pairs) / len(plan)
    return {
        "packet_batch_lanes": len(plan),
        "packet_scalar_us_per_packet": round(t_scalar * 1e6, 2),
        "packet_batch_us_per_packet": round(t_batch * 1e6, 2),
        "packet_batch_speedup": round(
            statistics.median(scalar / batch for scalar, batch in pairs), 2
        ),
    }


def bench_drbg() -> dict:
    """The scalar T-table fast path against the reference stream; the
    native keystream is timed in the ``native_crypto`` tier."""
    n_bytes = 1 << 16
    with fastpath.forced(True), _without_native():
        fast = AesCtrDrbg.from_seed(b"bench")
        t_fast = _best_of(lambda: fast.random_bytes(n_bytes), repeats=5)
    with fastpath.forced(False):
        reference = AesCtrDrbg.from_seed(b"bench")
        # Best-of, like the other gated tiers: a single sample of the
        # reference stream swings the tracked speedup past the CI gate's
        # 20% tolerance on a busy host.
        t_ref = _best_of(lambda: reference.random_bytes(n_bytes), repeats=5)
    return {
        "reference_mib_per_sec": round(n_bytes / t_ref / 2**20, 2),
        "fast_mib_per_sec": round(n_bytes / t_fast / 2**20, 2),
        "speedup": round(t_ref / t_fast, 2),
    }


def bench_drbg_bulk() -> dict:
    """Bulk keystream: scalar T-table refills vs the native keystream kernel.

    Both sides run the batched fast path (geometric refills, pooled
    ciphers); the scalar side runs with the loader made to find no
    library, which is what runs on a host without a compiler.  The
    output stream is bit-identical either way, so the tracked ratio is a
    pure kernel comparison.  Also times the batched dealer-fork prefill
    (``fork_many`` + ``prefill_many``, natively) against sequential
    scalar forks — the protocol's per-round dealing pattern.
    """
    n_bytes = 1 << 20
    with fastpath.forced(True), _without_native():
        scalar = AesCtrDrbg.from_seed(b"bulk-bench")
        t_scalar = _best_of(lambda: scalar.random_bytes(n_bytes), repeats=3)
    with fastpath.forced(True):
        lane = AesCtrDrbg.from_seed(b"bulk-bench")
        t_lane = _best_of(lambda: lane.random_bytes(n_bytes), repeats=3)

    forks = 64
    blocks_bytes = 96

    def forks_scalar():
        with fastpath.forced(True), _without_native():
            parent = AesCtrDrbg.from_seed(b"fork-bench")
            children = [parent.fork(f"dealer-{i}") for i in range(forks)]
            for child in children:
                child.random_bytes(blocks_bytes)

    def forks_lane():
        with fastpath.forced(True):
            parent = AesCtrDrbg.from_seed(b"fork-bench")
            children = parent.fork_many([f"dealer-{i}" for i in range(forks)])
            AesCtrDrbg.prefill_many(children, blocks_bytes)
            for child in children:
                child.random_bytes(blocks_bytes)

    t_forks_scalar = _best_of(forks_scalar, repeats=5)
    t_forks_lane = _best_of(forks_lane, repeats=5)
    return {
        "scalar_mib_per_sec": round(n_bytes / t_scalar / 2**20, 2),
        "lane_mib_per_sec": round(n_bytes / t_lane / 2**20, 2),
        "bulk_speedup": round(t_scalar / t_lane, 2),
        "fork_batch_speedup": round(t_forks_scalar / t_forks_lane, 2),
    }


def bench_sss() -> dict:
    field = PrimeField()
    scheme = ShamirScheme(field, degree=8)
    points = list(range(1, 25))
    secrets = [(i * 131 + 7) % 1000 for i in range(64)]

    def split_scalar():
        rng = AesCtrDrbg.from_seed(b"sss-bench")
        return [scheme.split(s, points, rng) for s in secrets]

    def split_batched():
        rng = AesCtrDrbg.from_seed(b"sss-bench")
        return scheme.split_many(secrets, points, rng)

    t_scalar = _best_of(split_scalar) / len(secrets)
    t_batched = _best_of(split_batched) / len(secrets)

    # 1024 sums keep the batched pass well above 1 ms per repeat — short
    # timings made this speedup flap ±25% on a busy host, which is too
    # noisy for the CI regression gate.
    sums = [{x: (x * 37 + i) % field.prime for x in points[:9]} for i in range(1024)]
    with fastpath.forced(False):
        t_rec_scalar = (
            _best_of(lambda: [reconstruct_from_sums(field, s, 8) for s in sums])
            / len(sums)
        )
    with fastpath.forced(True):
        t_rec_batched = (
            _best_of(lambda: reconstruct_many_from_sums(field, sums, 8), repeats=7)
            / len(sums)
        )
    return {
        "split_scalar_ops_per_sec": int(1.0 / t_scalar),
        "split_batched_ops_per_sec": int(1.0 / t_batched),
        "split_speedup": round(t_scalar / t_batched, 2),
        "reconstruct_scalar_ops_per_sec": int(1.0 / t_rec_scalar),
        "reconstruct_batched_ops_per_sec": int(1.0 / t_rec_batched),
        "reconstruct_speedup": round(t_rec_scalar / t_rec_batched, 2),
    }


def bench_minicast(seeds: int = 20) -> dict:
    """MiniCast phase cost, native slot kernel vs the Python slot loop."""
    from repro.analysis.experiments import build_engines, round_secrets
    from repro.ct import native
    from repro.ct.minicast import MiniCastRound
    from repro.topology.testbeds import dcube

    _, engine = build_engines(dcube(), CryptoMode.STUB)
    nodes = engine.topology.node_ids
    engine.run(round_secrets(nodes, 0), seed=0)  # commissioning
    phases = []
    original = MiniCastRound.run

    def recording(self, rng, *args, **kwargs):
        phases.append((self, args, kwargs))
        return original(self, rng, *args, **kwargs)

    MiniCastRound.run = recording
    try:
        engine.run(round_secrets(nodes, 1), seed=1)
    finally:
        MiniCastRound.run = original

    def per_phase_ms(round_, args, kwargs) -> float:
        def run_all():
            for seed in range(seeds):
                round_.run(random.Random(seed), *args, **kwargs)

        return _best_of(run_all, repeats=5) / seeds * 1e3

    kernel = native.minicast_kernel()
    result = {"native": kernel is not None}
    loader = native.minicast_kernel
    for name, (round_, args, kwargs) in zip(("sharing", "reconstruction"), phases):
        result[f"{name}_kernel_ms"] = round(per_phase_ms(round_, args, kwargs), 3)
        native.minicast_kernel = lambda: None
        try:
            result[f"{name}_python_ms"] = round(per_phase_ms(round_, args, kwargs), 3)
        finally:
            native.minicast_kernel = loader
    python_ms = result["sharing_python_ms"] + result["reconstruction_python_ms"]
    kernel_ms = result["sharing_kernel_ms"] + result["reconstruction_kernel_ms"]
    result["native_speedup"] = round(python_ms / kernel_ms, 2)
    return result


def bench_native_crypto(repeats: int = 20) -> dict:
    """Packet crypto, dealing and dealer evaluation: native kernels and
    batched draws vs what runs without them.

    One REAL S4 round on D-Cube is run with its ``batch_encrypt_shares``,
    ``batch_decrypt_values``, ``prefill_many``, ``random_with_secret``
    and ``evaluate_values`` calls recorded; every figure then replays
    those same inputs, with the native library and with the loader made
    to find none (the per-packet codec seals and opens the round's
    lanes, ``ctr_blocks`` runs the keystream, ``horner_eval_many``
    evaluates).  The coefficient draws compare ``randrange_many``
    against the per-draw loop, both on DRBGs the round's prefill left
    buffered.
    """
    from repro.analysis.experiments import build_engines, round_secrets
    from repro.core import protocol
    from repro.crypto import aesbatch
    from repro.errors import CryptoError
    from repro.field.polynomial import Polynomial
    from repro.field.prime_field import FieldElement
    from repro.topology.testbeds import dcube

    if not aesbatch.lanes_available():
        return {}
    fastpath.clear_process_caches()
    _, engine = build_engines(dcube(), CryptoMode.REAL)
    nodes = engine.topology.node_ids
    engine.run(round_secrets(nodes, 0), seed=0)  # commissioning
    seals, opens, prefills, deals, dealers = [], [], [], [], []
    encrypt, decrypt = protocol.batch_encrypt_shares, protocol.batch_decrypt_values
    evaluate_values = Polynomial.evaluate_values
    prefill_many = AesCtrDrbg.__dict__["prefill_many"]
    random_with_secret = Polynomial.__dict__["random_with_secret"]

    def record_seal(*args):
        seals.append(args)
        return encrypt(*args)

    def record_open(*args):
        opens.append(args)
        return decrypt(*args)

    def record_prefill(drbgs, length):
        prefills.append(([drbg.key_bytes for drbg in drbgs], length))
        return prefill_many.__func__(drbgs, length)

    def record_deal(cls, field, secret, degree, rng):
        deals.append((field, secret, degree))
        return random_with_secret.__func__(cls, field, secret, degree, rng)

    def record_dealer(polynomial, xs):
        dealers.append((polynomial, xs))
        return evaluate_values(polynomial, xs)

    protocol.batch_encrypt_shares, protocol.batch_decrypt_values = record_seal, record_open
    Polynomial.evaluate_values = record_dealer
    AesCtrDrbg.prefill_many = staticmethod(record_prefill)
    Polynomial.random_with_secret = classmethod(record_deal)
    try:
        engine.run(round_secrets(nodes, 1), seed=1)
    finally:
        protocol.batch_encrypt_shares, protocol.batch_decrypt_values = encrypt, decrypt
        Polynomial.evaluate_values = evaluate_values
        AesCtrDrbg.prefill_many = prefill_many
        Polynomial.random_with_secret = random_with_secret
    ((plaintexts, plan, round_nonce),) = seals
    ((delivered, sealed, field, _),) = opens
    ((keys, length),) = prefills
    packets = [sealed.packet(lane) for lane in delivered]

    def seal_per_packet():
        for source, destination, value in zip(plan.source, plan.destination, plaintexts):
            engine.codec(source).encrypt_share(
                destination, FieldElement(field, value), round_nonce
            )

    def open_per_packet():
        for packet in packets:
            try:
                engine.codec(packet.destination).decrypt_share(packet, field, round_nonce)
            except CryptoError:
                pass

    def per_call_ms(run, calls: int = repeats) -> float:
        def run_all():
            for _ in range(calls):
                run()

        return _best_of(run_all, repeats=5) / calls * 1e3

    def best_ms(prepare, run) -> float:
        """Best of 5 of ``run`` over ``repeats`` fresh inputs each, per
        input; ``prepare`` builds an input outside the clock."""
        best = float("inf")
        for _ in range(5):
            inputs = [prepare() for _ in range(repeats)]
            best = min(best, _timed(lambda: [run(item) for item in inputs]))
        return best / repeats * 1e3

    def fresh_dealers() -> list:
        return [AesCtrDrbg(key) for key in keys]

    def buffered_dealers() -> list:
        drbgs = fresh_dealers()
        AesCtrDrbg.prefill_many(drbgs, length)
        return drbgs

    def refill_drbg() -> AesCtrDrbg:
        # Past the geometric ramp with nothing buffered, so the next
        # 512-byte read is exactly one 32-block refill.
        drbg = AesCtrDrbg.from_seed(b"refill")
        while drbg._refill_blocks < 32 or drbg._offset < len(drbg._buffer):
            drbg.random_bytes(16)
        return drbg

    class LoopOnly:
        """A DRBG seen without ``randrange_many``: the per-draw loop."""

        def __init__(self, drbg):
            self.randrange = drbg.randrange

    def deal_all(drbgs, wrap):
        for (field, secret, degree), drbg in zip(deals, drbgs):
            Polynomial.random_with_secret(field, secret, degree, wrap(drbg))

    def per_round_ms() -> float:
        def run_all():
            for _ in range(repeats):
                for polynomial, xs in dealers:
                    polynomial.evaluate_values(xs)

        return _best_of(run_all, repeats=5) / repeats * 1e3

    def prefill_ms() -> float:
        return best_ms(fresh_dealers, lambda drbgs: AesCtrDrbg.prefill_many(drbgs, length))

    def refill_ms() -> float:
        return best_ms(refill_drbg, lambda drbg: drbg.random_bytes(512))

    # (name, the C figure, the fallback's; the loader decides which runs
    # where both are one function): the per-packet codec costs ~50 ms a
    # phase, so it runs 2 calls, best of 5.
    kernels = (
        (
            "seal",
            lambda: per_call_ms(lambda: encrypt(plaintexts, plan, round_nonce)),
            lambda: per_call_ms(seal_per_packet, 2),
        ),
        (
            "open",
            lambda: per_call_ms(lambda: decrypt(delivered, sealed, field, round_nonce)),
            lambda: per_call_ms(open_per_packet, 2),
        ),
        ("evaluate", per_round_ms, per_round_ms),
        ("prefill", prefill_ms, prefill_ms),
        ("refill", refill_ms, refill_ms),
    )
    result = {
        "native": native.library() is not None,
        "lanes": len(plan),
        "dealers": len(dealers),
        "prefill_dealers": len(keys),
    }
    with fastpath.forced(True):
        for name, in_c, fallback in kernels:
            # Alternating pairs, so a slow or fast phase of the host lands
            # on both sides; each figure is the median of its pairs.
            pairs = []
            for _ in range(3):
                native_ms = in_c()
                with _without_native():
                    pairs.append((native_ms, fallback()))
            native_ms = statistics.median(c for c, _ in pairs)
            fallback_ms = statistics.median(f for _, f in pairs)
            # "numpy": the keys' names from when numpy was the fallback.
            label = "python" if name == "evaluate" else "numpy"
            result[f"{name}_native_ms"] = round(native_ms, 3)
            result[f"{name}_{label}_ms"] = round(fallback_ms, 3)
            result[f"{name}_speedup"] = round(statistics.median(f / c for c, f in pairs), 2)
        batched_ms = best_ms(buffered_dealers, lambda drbgs: deal_all(drbgs, lambda d: d))
        loop_ms = best_ms(buffered_dealers, lambda drbgs: deal_all(drbgs, LoopOnly))
    result["draws_batched_ms"] = round(batched_ms, 3)
    result["draws_loop_ms"] = round(loop_ms, 3)
    result["draws_speedup"] = round(loop_ms / batched_ms, 2)
    return result


def bench_commissioning(repeats: int = 5) -> dict:
    """One cold D-Cube commissioning, and its two kernels in C vs Python.

    ``cold_ms`` is the first REAL S4 round on D-Cube with every process
    pool empty (the disk cache is off in this script): link tables, the
    S4 bootstrap's 40 probe floods on the reference loop, 45 share
    codecs' 3,960 key schedules and the round itself.  The floods are
    recorded from that bootstrap, random state included, and replayed
    with the native reference loop and with the Python one
    (``reference_flood_speedup``); the codecs are built with the native
    key schedules and with the loader finding none
    (``key_schedule_speedup``).
    """
    from repro.analysis.experiments import build_engines, round_secrets
    from repro.core.payload import RealShareCodec
    from repro.ct import native as ct_native
    from repro.ct.minicast import MiniCastRound
    from repro.topology.testbeds import dcube

    spec = dcube()
    nodes = spec.topology.node_ids
    floods = []
    original = MiniCastRound.run

    def recording(self, rng, *args, **kwargs):
        floods.append((self, rng.getstate(), args, kwargs))
        return original(self, rng, *args, **kwargs)

    def cold() -> None:
        fastpath.clear_process_caches()
        _, engine = build_engines(spec, CryptoMode.REAL)
        engine.run(round_secrets(nodes, 0), seed=0)

    cold_s = _best_of(cold, repeats=3)
    fastpath.clear_process_caches()
    _, engine = build_engines(spec, CryptoMode.STUB)
    MiniCastRound.run = recording
    try:
        engine.bootstrap_for(nodes)
    finally:
        MiniCastRound.run = original

    def replay() -> None:
        for round_, state, args, kwargs in floods:
            rng = random.Random()
            rng.setstate(state)
            round_.run(rng, *args, **kwargs)

    def codecs() -> None:
        for node in nodes:
            RealShareCodec(node, nodes, b"bench-master")

    flood_kernel_s = _best_of(replay, repeats=repeats)
    key_kernel_s = _best_of(codecs, repeats=repeats)
    loader = ct_native.reference_kernel
    ct_native.reference_kernel = lambda: None
    try:
        flood_python_s = _best_of(replay, repeats=repeats)
    finally:
        ct_native.reference_kernel = loader
    with _without_native():
        key_python_s = _best_of(codecs, repeats=repeats)
    return {
        "native": native.library() is not None,
        "cold_ms": round(cold_s * 1e3, 2),
        "reference_floods": len(floods),
        "flood_kernel_ms": round(flood_kernel_s * 1e3, 2),
        "flood_python_ms": round(flood_python_s * 1e3, 2),
        "reference_flood_speedup": round(flood_python_s / flood_kernel_s, 2),
        "key_schedules": 2 * len(nodes) * (len(nodes) - 1),
        "key_schedule_kernel_ms": round(key_kernel_s * 1e3, 2),
        "key_schedule_python_ms": round(key_python_s * 1e3, 2),
        "key_schedule_speedup": round(key_python_s / key_kernel_s, 2),
    }


# -- tier 2+3: end-to-end campaigns --------------------------------------------


def _run(spec, deployment, **session_options):
    """One scenario run through a fresh Session; the scenario payload."""
    with Session(**session_options) as session:
        return session.run(spec, deployment=deployment).payload


def bench_campaign(mode: CryptoMode, iterations: int) -> dict:
    bed = flocklab()
    spec = Figure1Spec(iterations=iterations, seed=1, crypto_mode=mode)

    def campaign():
        _run(spec, bed)

    # Seed-equivalent implementation: the reference path recomputes
    # everything per campaign, so cold and steady state coincide; take
    # the best of two runs as its steady-state number.
    with fastpath.forced(False):
        seed_cold = _timed(campaign)
        seed_steady = min(seed_cold, _timed(campaign))

    # Fast path: the first run in this process state pays commissioning
    # (cold); subsequent identical campaigns hit the shared pools.
    with fastpath.forced(True):
        fast_cold = _timed(campaign)
        fast_steady = min(_timed(campaign), _timed(campaign))

    return {
        "iterations": iterations,
        "seed_cold_s": round(seed_cold, 4),
        "seed_steady_s": round(seed_steady, 4),
        "fast_cold_s": round(fast_cold, 4),
        "fast_steady_s": round(fast_steady, 4),
        "cold_speedup": round(seed_cold / fast_cold, 2),
        "steady_speedup": round(seed_steady / fast_steady, 2),
    }


# -- tier 4: parallel campaign --------------------------------------------------


def bench_campaign_parallel(iterations: int, workers: int) -> dict:
    """Serial steady-state vs a warmed N-worker pool over a warm disk cache."""
    bed = flocklab()
    spec = Figure1Spec(iterations=iterations, seed=1, crypto_mode=CryptoMode.REAL)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache:
        diskcache.set_cache_dir(cache)
        previous_enabled = diskcache.set_enabled(True)
        try:
            with fastpath.forced(True):

                def campaign(executor=None):
                    _run(
                        spec,
                        bed,
                        # Explicit workers=1 so a REPRO_WORKERS env setting
                        # cannot leak parallelism into the serial baseline.
                        workers=None if executor is not None else 1,
                        executor=executor,
                    )

                campaign()  # warm the in-process pools AND the disk cache
                serial_s = min(_timed(campaign), _timed(campaign))
                with CampaignExecutor(workers=workers) as executor:
                    start = time.perf_counter()
                    executor.warm_up()
                    pool_startup_s = time.perf_counter() - start
                    # First parallel run: workers commission from the warm
                    # disk cache.  Steady state: their in-memory pools hold.
                    parallel_cold_s = _timed(lambda: campaign(executor))
                    parallel_s = min(
                        _timed(lambda: campaign(executor)),
                        _timed(lambda: campaign(executor)),
                    )
        finally:
            diskcache.set_cache_dir(None)
            diskcache.set_enabled(previous_enabled)
    return {
        "iterations": iterations,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "pool_startup_s": round(pool_startup_s, 4),
        "parallel_first_s": round(parallel_cold_s, 4),
        "parallel_s": round(parallel_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 2),
    }


# -- tier 6: sharded cells vs one flat MPC domain --------------------------------


def bench_sharded(iterations: int) -> dict:
    """Flat single-domain aggregation vs sharded cells, same deployment.

    Both forms run the MPC data path only (no radio schedule), so the
    comparison isolates the share-algebra scaling: the flat domain deals
    degree-(n/3) polynomials over n/3+1 collector points, the cells deal
    degree-(n/3k) polynomials — the quadratic win sharding exists for.
    """
    from repro.topology.generators import grid

    nodes = int(os.environ.get("REPRO_BENCH_SHARDED_NODES", "180"))
    cells = int(os.environ.get("REPRO_BENCH_SHARDED_CELLS", "6"))
    rounds = max(2, iterations)
    columns = max(1, round(nodes**0.5))
    topology = grid(columns, -(-nodes // columns), spacing_m=10.0, seed=7)
    flat_spec = ShardedSpec(cells=1, iterations=rounds, seed=1)
    sharded_spec = ShardedSpec(cells=cells, iterations=rounds, seed=1)

    with fastpath.forced(True):
        flat = _run(flat_spec, topology, metrics="summary")
        # Same repeats on both sides: best-of takes a min, so asymmetric
        # repeat counts would bias the tracked speedup.
        flat_s = _best_of(
            lambda: _run(flat_spec, topology, metrics="summary"), repeats=3
        )
        sharded = _run(sharded_spec, topology, metrics="summary")
        sharded_s = _best_of(
            lambda: _run(sharded_spec, topology, metrics="summary"), repeats=3
        )
    if not (flat.all_match and sharded.all_match):
        raise RuntimeError("sharded bench: aggregates failed to reconstruct")
    if flat.totals != sharded.totals:
        raise RuntimeError("sharded bench: flat and sharded aggregates differ")
    return {
        "nodes": len(topology),
        "cells": cells,
        "iterations": rounds,
        "flat_s": round(flat_s, 4),
        "sharded_s": round(sharded_s, 4),
        "sharded_speedup": round(flat_s / sharded_s, 2),
    }


# -- tier 7: chaos campaign — the price of coded redundancy ----------------------


def bench_chaos(iterations: int) -> dict:
    """Fault-injected campaign vs the fault-free sharded baseline.

    Same deployment and shape as the sharded tier; the chaos run adds
    replication-2 coded copies of every cell unit plus a sampled nonzero
    fault plan (a crash, a straggler, a corruption and a worker kill).
    The recorded ``redundancy_overhead`` is the wall-clock inflation paid
    for surviving that plan — deliberately *not* a ``*speedup`` key, so
    the regression gate records it without enforcing it: overhead is the
    price of the robustness contract, not a perf trajectory.
    """
    from repro.chaos import FaultPlan, run_chaos_campaign
    from repro.topology.generators import grid

    nodes = int(os.environ.get("REPRO_BENCH_SHARDED_NODES", "180"))
    cells = int(os.environ.get("REPRO_BENCH_SHARDED_CELLS", "6"))
    rounds = max(2, iterations)
    columns = max(1, round(nodes**0.5))
    topology = grid(columns, -(-nodes // columns), spacing_m=10.0, seed=7)
    plan = FaultPlan.sample(1, cells, rounds)

    with fastpath.forced(True):
        baseline_spec = ShardedSpec(cells=cells, iterations=rounds, seed=1)
        baseline = _run(baseline_spec, topology, metrics="summary")
        baseline_s = _best_of(
            lambda: _run(baseline_spec, topology, metrics="summary"), repeats=3
        )
        chaos = run_chaos_campaign(
            topology,
            cells,
            iterations=rounds,
            seed=1,
            faults=plan,
            replication=2,
        )
        chaos_s = _best_of(
            lambda: run_chaos_campaign(
                topology,
                cells,
                iterations=rounds,
                seed=1,
                faults=plan,
                replication=2,
            ),
            repeats=3,
        )
    if chaos.totals != baseline.totals:
        raise RuntimeError("chaos bench: faulted totals diverged from baseline")
    if not chaos.all_match:
        raise RuntimeError("chaos bench: faulted campaign failed to survive")
    return {
        "nodes": len(topology),
        "cells": cells,
        "iterations": rounds,
        "fault_events": len(plan.events),
        "recovered_rounds": sum(1 for entry in chaos.recovered if entry),
        "worker_retries": chaos.worker_retries,
        "unit_inflation": round(chaos.redundancy_overhead, 2),
        "baseline_s": round(baseline_s, 4),
        "chaos_s": round(chaos_s, 4),
        "redundancy_overhead": round(chaos_s / baseline_s, 2),
    }


def bench_service(iterations: int) -> dict:
    """Service daemon throughput: fsync'd admission, closes, recovery.

    A soak at the CI smoke's shape — fsync on every accepted share (the
    durability the restart-resume contract is priced in), one hard kill
    mid-stream — recorded as absolute rates: shares/sec through
    journal-before-ack admission, p99 window-close latency, and the
    journal-replay recovery time after the kill.  A second pass runs the
    same load sharded (4 journals, 4 inproc producer threads) so the
    record tracks multi-journal throughput next to the single-journal
    figure.  Deliberately no ``*speedup`` key: the regression gate
    records the tier without enforcing jittery absolute wall-clock
    numbers.
    """
    from repro.scenarios.spec import ServiceSoakSpec
    from repro.service.soak import run_service_soak

    devices = int(os.environ.get("REPRO_BENCH_SERVICE_DEVICES", "40"))
    windows = max(2, iterations)
    spec = ServiceSoakSpec(
        devices=devices,
        windows=windows,
        seed=17,
        cells=3,
        kill_at=(devices + devices // 2,),  # mid window 1
        duplicate_every=0,
        late_replays=0,
    )
    payload = run_service_soak(spec)
    if not (payload["all_exact"] and payload["oracle_match"]):
        raise RuntimeError("service bench: a window total missed its oracle")
    if payload["kills"] != 1:
        raise RuntimeError("service bench: the hard kill never fired")
    sharded = run_service_soak(
        ServiceSoakSpec(
            devices=devices,
            windows=windows,
            seed=17,
            cells=3,
            shards=4,
            producers=4,
            transport="inproc",
            kill_at=(devices + devices // 2,),
            duplicate_every=0,
            late_replays=0,
        )
    )
    if not (sharded["all_exact"] and sharded["oracle_match"]):
        raise RuntimeError("service bench: a sharded total missed its oracle")
    if sharded["billing_exact"] is not True:
        raise RuntimeError("service bench: the sharded billing extract diverged")
    return {
        "devices": devices,
        "windows": windows,
        "accepted": payload["accepted"],
        "journal_records": payload["journal_records"],
        "shares_per_sec": payload["shares_per_sec"],
        "p99_window_close_ms": payload["p99_close_ms"],
        "recovery_s": payload["recoveries"][0]["recovery_s"],
        "shards": sharded["shards"],
        "producers": sharded["producers"],
        "sharded_shares_per_sec": sharded["shares_per_sec"],
        "sharded_p99_window_close_ms": sharded["p99_close_ms"],
        "sharded_recovery_s": sharded["recoveries"][0]["recovery_s"],
    }


def bench_service_transport(iterations: int) -> dict:
    """Socket transport: cross-process round trips and shard-restart cost.

    One client over real shard processes (TCP localhost, fsync'd WALs):
    every submission is timed individually for the round-trip
    distribution, then one shard is SIGKILLed and the monitor's respawn
    is timed as ``shard_restart_recovery_s``.  All absolute figures, no
    ``*speedup`` key — the regression gate records the tier without
    enforcing jittery cross-process wall-clock numbers.
    """
    from repro.service.client import ServiceClient
    from repro.service.daemon import ServiceConfig
    from repro.service.transport import RetryPolicy

    devices = int(os.environ.get("REPRO_BENCH_SERVICE_DEVICES", "40"))
    windows = max(2, iterations)
    retry = RetryPolicy(max_attempts=60, total_deadline_s=60.0)
    round_trips: list[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-socket-") as tmp:
        client = ServiceClient(
            ServiceConfig(seed=17, cells=3, fsync=True),
            pathlib.Path(tmp) / "service",
            shards=2,
            transport="socket",
        )
        try:
            accepted = 0
            started = time.perf_counter()
            for window in range(windows):
                for device in range(devices):
                    t0 = time.perf_counter()
                    result = client.submit(
                        device, window, window, 100 + device, retry=retry
                    )
                    round_trips.append(time.perf_counter() - t0)
                    if not result.accepted:
                        raise RuntimeError(
                            f"socket bench: share refused: {result}"
                        )
                    accepted += 1
                summary = client.close_window(window)
                if summary.total != summary.expected:
                    raise RuntimeError(
                        "socket bench: a window total missed its oracle"
                    )
            elapsed = time.perf_counter() - started
            client.kill_shard(0)
            deadline = time.monotonic() + 30.0
            # Poll the log, not the counter: the counter increments when
            # the respawn *starts*; the log entry lands with the
            # measured recovery time once the shard is back up.
            while not client.supervisor.restart_log:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "socket bench: the monitor never restarted shard 0"
                    )
                time.sleep(0.005)
            recovery_s = client.supervisor.restart_log[-1]["recovery_s"]
            probe = client.submit(0, windows, windows, 1, retry=retry)
            if not probe.accepted:
                raise RuntimeError(
                    f"socket bench: restarted shard refused a share: {probe}"
                )
        finally:
            client.stop()
    round_trips.sort()
    p99 = round_trips[min(len(round_trips) - 1,
                          int(0.99 * (len(round_trips) - 1) + 0.5))]
    return {
        "devices": devices,
        "windows": windows,
        "shards": 2,
        "accepted": accepted,
        "socket_shares_per_sec": round(accepted / elapsed, 3),
        "p99_round_trip_ms": round(p99 * 1000.0, 3),
        "shard_restart_recovery_s": recovery_s,
    }


def bench_service_wire(calls: int = 20_000) -> dict:
    """Wire codec and first-try retry cost, µs per call (best of 5).

    The records are the ones a metering admission moves: a SUBMIT with
    a small reading and the ADMISSION_REPLY that acknowledges it.  The
    retry figure is a policy whose first ``send`` is final, which is
    how almost every submit ends.  No ``*speedup`` key: the gate
    records these without enforcing them.
    """
    from repro.service import wire
    from repro.service.shard import Admission, AdmissionResult
    from repro.service.transport import RetryPolicy

    records = {
        "submit": wire.ShareSubmission(device=7, seq=3, window=3, value=317),
        "reply": wire.AdmissionReply(admission="accepted", window=3),
    }

    def per_call_us(fn, arg) -> float:
        def loop():
            for _ in range(calls):
                fn(arg)

        return round(_best_of(loop, repeats=5) / calls * 1e6, 3)

    result: dict = {"calls": calls}
    for name, record in records.items():
        payload = wire.encode_record(record)
        framed = wire.frame(record)
        result[f"{name}_encode_us"] = per_call_us(wire.encode_record, record)
        result[f"{name}_decode_us"] = per_call_us(wire.decode_record, payload)
        result[f"{name}_frame_us"] = per_call_us(wire.frame, record)
        result[f"{name}_unframe_us"] = per_call_us(wire.unframe, framed)
    accepted = AdmissionResult(Admission.ACCEPTED, 3)
    policy = RetryPolicy(seed=17)
    result["retry_first_try_us"] = per_call_us(
        policy.run, lambda: accepted
    )
    return result


# -- tier 5: cold start vs the persisted commissioning cache ---------------------

_CHILD_SNIPPET = """
import json, sys, time
import repro.crypto.aesbatch  # the crypto imports paid before the clock starts
from repro.core.config import CryptoMode
from repro.scenarios import Figure1Spec, Session
from repro.topology.testbeds import flocklab
mode = CryptoMode.REAL if sys.argv[1] == "real" else CryptoMode.STUB
spec = Figure1Spec(iterations=int(sys.argv[2]), seed=1, crypto_mode=mode)
start = time.perf_counter()
with Session() as session:
    session.run(spec, deployment=flocklab())
print(json.dumps({"campaign_s": time.perf_counter() - start}))
"""


def _child_campaign_seconds(
    mode: str, iterations: int, env: dict, repeats: int = 1
) -> float:
    """Best-of-N campaign wall time measured inside fresh subprocesses.

    Cold start is a *per-process* property, so unlike the in-process cold
    tiers it can be repeated — each repeat is a brand-new interpreter —
    and the best-of keeps scheduler jitter on shared CI runners from
    tripping the regression gate on a single unlucky 200 ms sample.
    """
    child_env = dict(os.environ)
    child_env["REPRO_WORKERS"] = "1"
    child_env.update(env)
    src = str(REPO_ROOT / "src")
    existing = child_env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        child_env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    samples = []
    for _ in range(repeats):
        output = subprocess.run(
            [sys.executable, "-c", _CHILD_SNIPPET, mode, str(iterations)],
            env=child_env,
            capture_output=True,
            text=True,
            check=True,
        )
        samples.append(
            json.loads(output.stdout.strip().splitlines()[-1])["campaign_s"]
        )
    return min(samples)


def bench_cold_start(iterations: int) -> dict:
    """Fresh-process campaign cost: no cache vs cold cache vs warm cache."""
    result: dict = {"iterations": iterations}
    for mode in ("stub", "real"):
        with tempfile.TemporaryDirectory(prefix="repro-bench-cold-") as cache:
            no_cache = _child_campaign_seconds(
                mode, iterations, {"REPRO_DISK_CACHE": "0"}, repeats=3
            )
            warm_env = {"REPRO_DISK_CACHE": "1", "REPRO_CACHE_DIR": cache}
            first = _child_campaign_seconds(mode, iterations, warm_env)  # populates
            warm = _child_campaign_seconds(mode, iterations, warm_env, repeats=3)
        result[mode] = {
            "no_cache_s": round(no_cache, 4),
            "cache_populate_s": round(first, 4),
            "warm_s": round(warm, 4),
            "cache_speedup": round(no_cache / warm, 2),
        }
    return result


def main() -> int:
    iterations = int(os.environ.get("REPRO_BENCH_ITERATIONS", "2"))
    parallel_iterations = int(
        os.environ.get("REPRO_BENCH_PARALLEL_ITERATIONS", "8")
    )
    parallel_workers = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
    # Tiers 2+3 measure in-process cold/steady semantics; keep the disk
    # cache out of them (tier 5 measures it on purpose).
    diskcache.set_enabled(False)
    print("== primitives ==")
    aes = bench_aes()
    print(f"  AES-128 block: {aes}")
    drbg = bench_drbg()
    print(f"  AES-CTR DRBG:  {drbg}")
    drbg_bulk = bench_drbg_bulk()
    print(f"  DRBG bulk:     {drbg_bulk}")
    sss = bench_sss()
    print(f"  Shamir SSS:    {sss}")
    minicast = bench_minicast()
    print(f"  MiniCast:      {minicast}")
    native_crypto = bench_native_crypto()
    print(f"  native crypto: {native_crypto}")
    commissioning = bench_commissioning()
    print(f"  commissioning: {commissioning}")

    print("== figure1 campaigns (FlockLab sweep) ==")
    stub = bench_campaign(CryptoMode.STUB, iterations)
    print(f"  STUB: {stub}")
    real = bench_campaign(CryptoMode.REAL, iterations)
    print(f"  REAL: {real}")

    print("== campaign_parallel (REAL sweep, warmed pool + warm disk cache) ==")
    parallel = bench_campaign_parallel(parallel_iterations, parallel_workers)
    print(f"  {parallel}")

    print("== sharded campaign (flat MPC domain vs cells + cross-cell round) ==")
    sharded = bench_sharded(iterations)
    print(f"  {sharded}")

    print("== chaos campaign (sampled fault plan + replication-2 coded cells) ==")
    chaos = bench_chaos(iterations)
    print(f"  {chaos}")

    print("== service daemon (fsync'd WAL admission + hard-kill recovery) ==")
    service = bench_service(iterations)
    print(f"  {service}")

    print("== service transport (socket round trips + shard-restart cost) ==")
    transport = bench_service_transport(iterations)
    print(f"  {transport}")

    print("== service wire (codec + first-try retry, us per call) ==")
    service_wire = bench_service_wire()
    print(f"  {service_wire}")

    print("== cold start (fresh subprocesses, persisted commissioning cache) ==")
    cold = bench_cold_start(iterations)
    print(f"  STUB: {cold['stub']}")
    print(f"  REAL: {cold['real']}")
    cold["real"]["warm_vs_steady"] = round(
        cold["real"]["warm_s"] / real["fast_steady_s"], 2
    )
    cold["stub"]["warm_vs_steady"] = round(
        cold["stub"]["warm_s"] / stub["fast_steady_s"], 2
    )

    results = {
        "bench_version": 2,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "aes": aes,
        "drbg": drbg,
        "drbg_bulk": drbg_bulk,
        "sss": sss,
        "minicast": minicast,
        "native_crypto": native_crypto,
        "commissioning": commissioning,
        "figure1_stub": stub,
        "figure1_real": real,
        "campaign_parallel": parallel,
        "sharded_campaign": sharded,
        "chaos_campaign": chaos,
        "service_throughput": service,
        "service_transport": transport,
        "service_wire": service_wire,
        "cold_start": cold,
        "targets": {
            "figure1_stub_steady_speedup_min": 5.0,
            "figure1_real_steady_speedup_min": 10.0,
            "campaign_parallel_speedup_min": 2.0,
            "campaign_parallel_min_cores": 4,
            # 3.0 since PR 4: steady state amortises the per-round
            # round-constant caches, which a fresh process
            # legitimately lacks — the warm cold start itself
            # kept improving (see cold_start.*.warm_s), only the
            # denominator got faster.
            "cold_start_warm_vs_steady_max": 3.0,
            "sharded_campaign_speedup_min": 2.0,
            "drbg_bulk_speedup_min": 5.0,
        },
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    # Console warnings read the SAME thresholds the JSON carries (and the
    # regression gate enforces) — one source of truth, no drift.
    targets = results["targets"]
    ok = True

    def check_min(label: str, value, floor) -> None:
        nonlocal ok
        if value < floor:
            print(f"WARNING: {label} {value}x < {floor}x target")
            ok = False

    check_min(
        "STUB steady-state speedup",
        stub["steady_speedup"],
        targets["figure1_stub_steady_speedup_min"],
    )
    check_min(
        "REAL steady-state speedup",
        real["steady_speedup"],
        targets["figure1_real_steady_speedup_min"],
    )
    cores = os.cpu_count() or 1
    if cores >= targets["campaign_parallel_min_cores"]:
        check_min(
            f"parallel speedup on {cores} cores",
            parallel["parallel_speedup"],
            targets["campaign_parallel_speedup_min"],
        )
    else:
        print(
            f"NOTE: {cores} core(s) available; the 4-worker "
            f">={targets['campaign_parallel_speedup_min']}x wall-time target "
            f"needs >={targets['campaign_parallel_min_cores']} cores and is "
            "recorded, not enforced, here"
        )
    check_min(
        "sharded campaign speedup",
        sharded["sharded_speedup"],
        targets["sharded_campaign_speedup_min"],
    )
    cold_cap = targets["cold_start_warm_vs_steady_max"]
    for mode in ("stub", "real"):
        ratio = cold[mode]["warm_vs_steady"]
        if ratio > cold_cap:
            print(
                f"WARNING: {mode.upper()} warm-cache cold start is "
                f"{ratio}x steady state (> {cold_cap}x target)"
            )
            ok = False
    check_min(
        "DRBG bulk lane speedup",
        drbg_bulk["bulk_speedup"],
        targets["drbg_bulk_speedup_min"],
    )
    print("targets met" if ok else "targets NOT met")
    if not ok and os.environ.get("REPRO_BENCH_STRICT", "0") == "1":
        # Lenient by default: shared CI runners jitter, and the JSON
        # record is the artifact that matters.  Set REPRO_BENCH_STRICT=1
        # to turn a missed target into a non-zero exit.
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
