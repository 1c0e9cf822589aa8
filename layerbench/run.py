#!/usr/bin/env python3
"""Run one benchmark workload; print its metrics and a correctness verdict.

    python3 layerbench/run.py --workload rounds_real --seed 1 --seconds 24 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  ``--trace 0`` prints every end-to-end metric named
in ``BENCHMARK.json``; ``--trace 1`` traces every other timed unit (and
every later phase) and prints every per-layer metric, a per-layer table
and the tracing overhead, and writes the spans as Chrome trace-event
JSON under ``.layerbench/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every checked output was correct.
"""

import time

# The set-up clock starts here, before anything of the program is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: per-run directories and span files.
OUT = ROOT / ".layerbench"
#: A run that hangs is stopped (shard processes included) before 180 s.
WATCHDOG_S = 170.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
WORKLOAD_NAMES = ("rounds_real", "metering_ingest", "metering_fold")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small windows, for the benchmark's self-tests")
    return parser.parse_args(argv)


def isolate(run_dir: pathlib.Path) -> None:
    """Private, empty cache; no REPRO_* switch inherited from the caller."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    cache = run_dir / "cache"
    cache.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)


def filesystem_of(path: pathlib.Path) -> str:
    """The filesystem type and mount point holding ``path``."""
    best = ("/", "unknown")
    target = str(path.resolve())
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best[0]):
                best = (mount, fields[2])
    return f"{best[1]} at {best[0]}"


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, imported: float, setups: list[tuple[float, float]],
               rss_mb: float) -> tuple[dict, list[str]]:
    """``imported``: seconds from process start to the set-ups; ``setups``:
    (seconds, reference seconds) of each set-up."""
    from reference import REFERENCE_S

    out = workload.out
    setup_s = imported + statistics.median(seconds for seconds, _ in setups)
    # Each set-up and each block in references, then at the reference
    # host's speed.
    values = {
        "setup_s": statistics.median((imported + seconds) / ref for seconds, ref in setups)
        * REFERENCE_S,
        "throughput_per_s": statistics.median(rate * ref for _, rate, ref in out.blocks)
        / REFERENCE_S,
        "latency_ms": statistics.median(median / ref for median, _, ref in out.blocks)
        * REFERENCE_S * 1e3,
        "peak_rss_mb": rss_mb,
    }
    refs = [ref for _, _, ref in out.blocks]
    samples = len(out.latency)
    whole = (f"as timed, all {samples} samples: "
             f"p50 {statistics.median(out.latency) * 1e3:.4f} ms")
    # The highest percentile with at least ten samples beyond it.
    tail_q = next((q for q in (99.9, 99, 90) if samples * (1 - q / 100) >= 10), None)
    if tail_q is not None:
        tail, beyond = percentile(out.latency, tail_q)
        whole += f", p{tail_q:g} {tail * 1e3:.4f} ms ({beyond} beyond)"
    notes = [
        f"blocks: {len(out.blocks)}; reference (ms) median {statistics.median(refs) * 1e3:.4f}, "
        f"{min(refs) * 1e3:.4f} to {max(refs) * 1e3:.4f}; at the reference host's "
        f"{REFERENCE_S * 1e3:g} ms",
        whole,
        f"as timed: set-up {setup_s:.4f} s, block throughput median "
        f"{statistics.median(rate for _, rate, _ in out.blocks):.4f}/s",
    ]
    return values, notes


def per_layer(workload, tracer, trace_path: pathlib.Path) -> tuple[dict, list[str]]:
    from layers import COVERED_UNITS, MIN_COVERAGE, PER_LAYER, REQUIRED
    from tracing import LayerStats

    stats = LayerStats(tracer.spans)
    extras = dict(workload.out.extras)
    samples = workload.out.overhead
    traced_ms = statistics.median(lat for lat, traced in samples if traced) * 1e3
    untraced_ms = statistics.median(lat for lat, traced in samples if not traced) * 1e3
    extras["overhead_pct"] = (traced_ms / untraced_ms - 1) * 100
    lines = [f"tracing overhead: median timed unit {traced_ms:.4f} ms traced vs "
             f"{untraced_ms:.4f} ms untraced, interleaved ({extras['overhead_pct']:+.1f}%)"]
    for kind in ("round", "admission", "close", "kill", "restart", "read"):
        rows, covered = stats.table(kind)
        units = stats.count(kind)
        if not units:
            continue
        wall_ms = stats.wall_ns(kind) / units / 1e6
        lines.append(f"unit {kind}: {units} traced, {wall_ms:.3f} ms wall each; "
                     f"layer self times cover {covered:.1%} of it")
        workload.out.check(kind not in COVERED_UNITS or covered >= MIN_COVERAGE,
                           f"layer self times cover {covered:.1%} of a {kind}")
        lines.append(f"  {'layer':38} {'calls/unit':>10} {'self us/unit':>13} {'share':>7}")
        for name, calls, self_us, share in rows:
            lines.append(f"  {name:38} {calls / units:10.2f} {self_us:13.1f} {share:7.1%}")
    closes = stats.count("close")
    fold_ns = stats.per_unit("close", "service.windows.fold")
    if closes and fold_ns:
        share = fold_ns / (stats.wall_ns("close") / closes)
        lines.append(f"fold share of a close: {share:.1%} "
                     f"(>= 90%: {'yes' if share >= 0.9 else 'no'})")
    tracer.write_chrome(str(trace_path))
    lines.append(f"spans: {len(tracer.raw)} written to {os.path.relpath(trace_path, ROOT)}")
    values = {name: fn(stats, extras) for name, fn in PER_LAYER.items()}
    for name in REQUIRED[workload.name]:
        workload.out.check(values[name] > 0, f"per-layer metric {name} reads 0")
    return values, lines


def set_up(workload, run_dir: pathlib.Path, attempt: int) -> tuple[float, float]:
    """Set the workload up from empty directories: (seconds taken, the
    mean of the reference's seconds just before and just after)."""
    from reference import reference

    before = reference()
    began = time.perf_counter()
    workload.setup(run_dir / f"setup{attempt}")
    took = time.perf_counter() - began
    return took, (before + reference()) / 2


def execute(args, declared: dict, run_dir: pathlib.Path) -> int:
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload](Context(seed=args.seed, tiny=args.size == "tiny"))

    def expire() -> None:
        faulthandler.dump_traceback(all_threads=True)
        try:
            workload.abort()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            os._exit(3)

    watchdog = threading.Timer(WATCHDOG_S, expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        for module in workload.MODULES:
            importlib.import_module(module)
        imported = time.perf_counter() - _STARTED
        setups = [set_up(workload, run_dir, 0)]
        if args.trace:
            from layers import protocol_points, service_points
            from tracing import Tracer, installed

            points = protocol_points() if args.workload == "rounds_real" else service_points()
            tracer = Tracer()
            with installed(tracer, points):
                workload.timed(args.seconds, tracer)
                tracer.alternate(0)
                workload.post(tracer)
        else:
            workload.timed(args.seconds)
            # Through set-up and the timed phase: what follows is mostly
            # the benchmark's own oracles, whose heap use varies by seed.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            workload.post()
            # More set-ups after the timed phase, so that their median
            # does not sample only the host phase the run began in.
            for attempt in range(1, SETUPS):
                workload.stop()
                gc.collect()
                setups.append(set_up(workload, run_dir, attempt))
        workload.stop()
    except BaseException:
        workload.abort()
        raise
    finally:
        watchdog.cancel()

    print(f"layerbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"service and cache directories: {filesystem_of(run_dir)}; "
          "journals flushed per append, not fsynced")
    for note in workload.out.notes:
        print(note)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        values, lines = per_layer(workload, tracer, trace_path)
        declared_metrics = declared["per_layer"]
    else:
        values, lines = end_to_end(workload, imported, setups, rss_mb)
        declared_metrics = declared["end_to_end"]
    for line in lines:
        print(line)
    metrics = {}
    for metric in declared_metrics:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:40} {value:14.6f} {metric['unit']}")
    out = workload.out
    for problem in out.problems:
        print(f"FAILED: {problem}")
    correct = out.failed == 0
    print(f"correctness: {out.attempted} checked, {out.failed} failed")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


def pin() -> int:
    """Keep the benchmark, and the shard processes it spawns, on one vCPU.

    Then a block and its reference run on the same core, and an
    admission's round trip to a shard process is a switch on that core
    rather than a wake-up of the other vCPU, whose cost on a busy host
    the reference cannot see.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = OUT / f"run-{os.getpid()}"
    isolate(run_dir)
    print(f"pinned to vCPU {pin()}")
    try:
        return execute(args, declared, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # Spawning shard processes starts multiprocessing's resource
        # tracker; reap it so no process outlives the run.
        tracker = sys.modules.get("multiprocessing.resource_tracker")
        if tracker is not None:
            tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
