"""Perf-trajectory gate: diff two BENCH_core.json files, fail on regression.

Usage::

    python benchmarks/check_bench_regression.py BASELINE.json NEW.json [--tolerance 0.2]

Every numeric entry whose key ends in ``speedup`` (anywhere in the JSON
tree) is a tracked speedup.  The check fails — exit code 1 — when any
tracked speedup present in *both* files drops by more than ``tolerance``
(default 20%) relative to the baseline.  New keys are informational;
removed keys are reported as failures (a silently dropped metric is how
perf trajectories rot).

Machine awareness: the ``campaign_parallel`` subtree scales with core
count, so it is only compared when both files report the same
``cpu_count``.  Everything else is a same-machine ratio (fast path vs
reference, warm vs steady) and travels across machines well enough to
gate on.

Besides the pairwise diff, the gate enforces the *absolute* floors the
NEW file carries in its ``targets`` block (``drbg_bulk_speedup_min``,
``figure1_*_steady_speedup_min``, ...), each relaxed by the same
tolerance so shared-runner jitter cannot flake a healthy build.  All
enforced quantities are same-machine ratios.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def tracked_speedups(tree, prefix: str = "") -> dict[str, float]:
    """Flatten ``{dotted.path: value}`` for every *speedup-suffixed key."""
    found: dict[str, float] = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                found.update(tracked_speedups(value, path))
            elif isinstance(value, (int, float)) and str(key).endswith("speedup"):
                found[path] = float(value)
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            found.update(tracked_speedups(value, f"{prefix}[{index}]"))
    return found


def target_failures(new: dict, tolerance: float) -> list[str]:
    """Check the NEW file's ``targets`` floors (tolerance-relaxed).

    Targets whose tier is absent are skipped (older files), as is the
    core-count-dependent parallel target on machines below its minimum.
    """
    targets = new.get("targets", {})
    failures: list[str] = []

    def check_min(label: str, value, floor):
        relaxed = floor * (1.0 - tolerance)
        status = "ok" if value >= relaxed else f"BELOW TARGET (floor {floor}x)"
        print(f"  target {label}: {value}x >= {floor}x  {status}")
        if value < relaxed:
            failures.append(f"{label}: {value}x < {floor}x target")

    floor = targets.get("figure1_stub_steady_speedup_min")
    if floor is not None and "figure1_stub" in new:
        check_min("figure1_stub.steady_speedup", new["figure1_stub"]["steady_speedup"], floor)
    floor = targets.get("figure1_real_steady_speedup_min")
    if floor is not None and "figure1_real" in new:
        check_min("figure1_real.steady_speedup", new["figure1_real"]["steady_speedup"], floor)
    floor = targets.get("sharded_campaign_speedup_min")
    if floor is not None and "sharded_campaign" in new:
        check_min(
            "sharded_campaign.sharded_speedup",
            new["sharded_campaign"]["sharded_speedup"],
            floor,
        )
    floor = targets.get("drbg_bulk_speedup_min")
    if floor is not None and "drbg_bulk" in new:
        check_min("drbg_bulk.bulk_speedup", new["drbg_bulk"]["bulk_speedup"], floor)
    floor = targets.get("campaign_parallel_speedup_min")
    min_cores = targets.get("campaign_parallel_min_cores", 4)
    cores = new.get("cpu_count") or 1
    if floor is not None and "campaign_parallel" in new:
        if cores >= min_cores:
            check_min(
                "campaign_parallel.parallel_speedup",
                new["campaign_parallel"]["parallel_speedup"],
                floor,
            )
        else:
            print(
                f"  target campaign_parallel: skipped ({cores} < "
                f"{min_cores} cores)"
            )
    ceiling = targets.get("cold_start_warm_vs_steady_max")
    if ceiling is not None and "cold_start" in new:
        for mode in ("stub", "real"):
            value = new["cold_start"].get(mode, {}).get("warm_vs_steady")
            if value is None:
                continue
            relaxed = ceiling * (1.0 + tolerance)
            status = "ok" if value <= relaxed else f"ABOVE TARGET (cap {ceiling}x)"
            print(f"  target cold_start.{mode}.warm_vs_steady: {value}x <= {ceiling}x  {status}")
            if value > relaxed:
                failures.append(
                    f"cold_start.{mode}.warm_vs_steady: {value}x > {ceiling}x target"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop per tracked speedup (default 0.2)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    new = json.loads(args.new.read_text())

    base_speedups = tracked_speedups(baseline)
    new_speedups = tracked_speedups(new)

    skip_parallel = baseline.get("cpu_count") != new.get("cpu_count")
    if skip_parallel:
        print(
            f"note: cpu_count differs (baseline {baseline.get('cpu_count')}, "
            f"new {new.get('cpu_count')}); skipping campaign_parallel comparisons"
        )

    failures: list[str] = []
    for path, base_value in sorted(base_speedups.items()):
        if skip_parallel and path.startswith("campaign_parallel"):
            continue
        if path not in new_speedups:
            failures.append(f"{path}: tracked speedup disappeared (was {base_value}x)")
            continue
        new_value = new_speedups[path]
        floor = base_value * (1.0 - args.tolerance)
        status = "ok"
        if new_value < floor:
            status = f"REGRESSION (floor {floor:.2f}x)"
            failures.append(
                f"{path}: {base_value}x -> {new_value}x "
                f"(> {args.tolerance:.0%} drop)"
            )
        print(f"  {path}: {base_value}x -> {new_value}x  {status}")
    for path in sorted(set(new_speedups) - set(base_speedups)):
        print(f"  {path}: (new) {new_speedups[path]}x")

    target_misses = target_failures(new, args.tolerance)

    if failures or target_misses:
        if failures:
            print(
                f"\nFAIL: {len(failures)} tracked speedup(s) regressed > "
                f"{args.tolerance:.0%}:"
            )
            for failure in failures:
                print(f"  - {failure}")
        if target_misses:
            print(
                f"\nFAIL: {len(target_misses)} absolute target floor(s) "
                "missed (tolerance-relaxed):"
            )
            for miss in target_misses:
                print(f"  - {miss}")
        return 1
    print(
        f"\nOK: no tracked speedup regressed more than {args.tolerance:.0%} "
        "and every absolute target floor held"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
