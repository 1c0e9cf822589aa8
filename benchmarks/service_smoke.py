"""CI smoke for the sharded service's restart-resume bit-identity contract.

Three probes, all through the one :class:`repro.service.ServiceClient`
API (4 shard journals + the fold journal, 4 concurrent producer threads
on the inproc transport, serialized per journal by the daemon's shard
locks):

1. **Oracle** — an uninterrupted sharded ``service_soak`` run (no
   kills) must close every window exact against both its accepted-set
   reconstruction and the batch metering billing oracle.
2. **Hard kill** — a *separate OS process* stands up a client on a
   pinned service directory, streams part of window 0 from 4 producer
   threads and dies with ``os._exit`` mid-window, journal handles open —
   a real ``kill -9``, not an in-process simulation.
3. **Resume** — the parent restarts a client over the dead process's
   service directory, re-streams the full load from 4 producers
   (already-journaled shares must be answered ``DUPLICATE``), closes
   every window and demands totals bit-identical to the oracle run.

The recovered window records, the result store's per-device billing
extract, and a manifest land in ``--out-dir`` as the artifact CI
uploads.

Run:  PYTHONPATH=src python benchmarks/service_smoke.py --out-dir service-smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

from repro.scenarios.spec import ServiceSoakSpec  # noqa: E402
from repro.service import Admission, ServiceClient, ServiceConfig  # noqa: E402
from repro.service.loadgen import device_ids, window_submissions  # noqa: E402
from repro.service.soak import run_service_soak  # noqa: E402

#: One fixed workload for every probe.
DEVICES = 12
WINDOWS = 3
SEED = 60221
BASE_LOAD_WH = 210
CELLS = 3
SHARDS = 4
PRODUCERS = 4
#: The child journals this many window-0 shares, then dies mid-window.
KILL_AFTER = 8


def _config() -> ServiceConfig:
    return ServiceConfig(seed=SEED, cells=CELLS, fsync=True)


def _client(service_dir: pathlib.Path) -> ServiceClient:
    return ServiceClient(
        _config(), service_dir, shards=SHARDS, transport="inproc"
    )


def _spec() -> ServiceSoakSpec:
    return ServiceSoakSpec(
        devices=DEVICES,
        windows=WINDOWS,
        seed=SEED,
        base_load_wh=BASE_LOAD_WH,
        cells=CELLS,
        shards=SHARDS,
        producers=PRODUCERS,
        transport="inproc",
        duplicate_every=0,
        late_replays=0,
    )


def _stream(client: ServiceClient, submissions, counters: dict) -> None:
    """Fan ``submissions`` over PRODUCERS threads; tally admissions."""
    lock = threading.Lock()

    def produce(chunk) -> None:
        for submission in chunk:
            result = client.submit(
                submission.device,
                submission.seq,
                submission.window,
                submission.value,
            )
            with lock:
                if result.admission is Admission.DUPLICATE:
                    counters["duplicates"] += 1
                elif result.accepted:
                    counters["accepted"] += 1
                else:
                    counters["refused"] += 1

    threads = [
        threading.Thread(target=produce, args=(submissions[p::PRODUCERS],))
        for p in range(PRODUCERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _worker(service_dir: pathlib.Path) -> None:
    """Child process body: journal part of window 0 concurrently, die hard."""
    client = _client(service_dir)
    ids = device_ids(DEVICES)
    counters = {"accepted": 0, "duplicates": 0, "refused": 0}
    _stream(
        client,
        window_submissions(ids, 0, BASE_LOAD_WH, SEED)[:KILL_AFTER],
        counters,
    )
    assert counters["accepted"] == KILL_AFTER
    os._exit(9)  # journal handles still open — the torn-world exit


def _oracle_probe() -> tuple[dict, list[tuple]]:
    start = time.perf_counter()
    payload = run_service_soak(_spec())
    probe = {
        "probe": "oracle",
        "elapsed_s": round(time.perf_counter() - start, 3),
        "shards": payload["shards"],
        "producers": payload["producers"],
        "violations": [],
    }
    if not payload["all_exact"]:
        probe["violations"].append("an uninterrupted window total was inexact")
    if not payload["oracle_match"]:
        probe["violations"].append("a window total missed the billing oracle")
    if payload["billing_exact"] is not True:
        probe["violations"].append("the store extract missed the billing oracle")
    baseline = [
        (row["window"], row["total"], row["expected"], row["accepted"])
        for row in payload["windows"]
    ]
    return probe, baseline


def _kill_probe(service_dir: pathlib.Path) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    completed = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--worker", "--service-dir", str(service_dir)],
        env=env,
        capture_output=True,
        text=True,
    )
    journals = sorted(p.name for p in service_dir.glob("*.wal"))
    probe = {
        "probe": "hard-kill",
        "exit_code": completed.returncode,
        "journals": journals,
        "violations": [],
    }
    if completed.returncode != 9:
        probe["violations"].append(
            f"worker should die with os._exit(9), got {completed.returncode}: "
            f"{completed.stderr.strip()[:300]}"
        )
    if len([j for j in journals if j.startswith("shard-")]) != SHARDS:
        probe["violations"].append(
            f"expected {SHARDS} shard journals, found {journals}"
        )
    return probe


def _resume_probe(
    service_dir: pathlib.Path, baseline: list[tuple], out_dir: pathlib.Path
) -> dict:
    start = time.perf_counter()
    client = _client(service_dir)
    recovery_s = time.perf_counter() - start
    probe = {
        "probe": "resume",
        "recovery_s": round(recovery_s, 6),
        "replayed_records": client.journal_records,
        "violations": [],
    }
    if not client.recovered:
        probe["violations"].append("restart did not flag recovery")
    if client.pending != KILL_AFTER:
        probe["violations"].append(
            f"expected {KILL_AFTER} recovered pending shares, "
            f"got {client.pending}"
        )
    ids = device_ids(DEVICES)
    counters = {"accepted": 0, "duplicates": 0, "refused": 0}
    for window in range(WINDOWS):
        _stream(
            client, window_submissions(ids, window, BASE_LOAD_WH, SEED), counters
        )
        client.close_window(window)
    probe["duplicates"] = counters["duplicates"]
    if counters["refused"]:
        probe["violations"].append(
            f"{counters['refused']} re-streamed share(s) were refused"
        )
    if counters["duplicates"] != KILL_AFTER:
        probe["violations"].append(
            f"expected {KILL_AFTER} duplicate answers for journaled "
            f"shares, got {counters['duplicates']}"
        )
    records = client.window_records()
    extract = client.query()
    client.stop()
    resumed = [(s.window, s.total, s.expected, s.accepted) for s in records]
    if resumed != baseline:
        probe["violations"].append(
            "recovered window totals are not bit-identical to the "
            f"uninterrupted oracle: {resumed} != {baseline}"
        )
    (out_dir / "window_records.json").write_text(
        json.dumps(
            {
                "baseline": [
                    dict(zip(("window", "total", "expected", "accepted"), row))
                    for row in baseline
                ],
                "recovered": [dataclasses.asdict(s) for s in records],
            },
            indent=2,
        )
        + "\n"
    )
    (out_dir / "store_extract.json").write_text(
        json.dumps(extract, indent=2) + "\n"
    )
    return probe


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        default="service-smoke",
        help="where window records, the store extract and the manifest land",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--service-dir", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(pathlib.Path(args.service_dir))
        return 0  # unreachable; _worker exits hard

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    service_dir = out_dir / "service"
    for stale in (
        list(service_dir.glob("*.wal")) + list(service_dir.glob("*.store"))
        if service_dir.exists()
        else []
    ):
        stale.unlink()

    oracle, baseline = _oracle_probe()
    probes = [oracle, _kill_probe(service_dir)]
    probes.append(_resume_probe(service_dir, baseline, out_dir))
    failed = [p["probe"] for p in probes if p["violations"]]
    (out_dir / "manifest.json").write_text(
        json.dumps({"probes": probes, "failed": failed}, indent=2) + "\n"
    )
    for probe in probes:
        status = "ok" if not probe["violations"] else "FAILED"
        print(f"{probe['probe']:10s} {status}")
        for violation in probe["violations"]:
            print(f"  - {violation}", file=sys.stderr)
    if failed:
        print(f"failed probes: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(
        f"restart-resume bit-identity held across a process kill "
        f"({SHARDS} journals, {PRODUCERS} producers); records in {out_dir}/"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
