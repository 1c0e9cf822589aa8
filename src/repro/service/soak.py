"""The soak driver: a full service lifetime, faults included, in one call.

:func:`run_service_soak` stands up a :class:`~repro.service.client
.ServiceClient` over a service directory — ``shards`` journals behind
one API, fed by ``producers`` concurrent threads over the spec's
transport — streams the deterministic metering load at it window by
window, fires the plan's service faults at their anchored submission
offsets (``kill_daemon`` hard-kills the whole service and restarts it
from the journals, anchored on one shard's accepted count when the
event names a shard; ``pause_ingest`` forces a stretch of
``RETRY_AFTER`` answers the driver must retry through; on the socket
transport ``kill_shard_process`` SIGKILLs one live shard daemon for the
supervisor's monitor to restart, and ``drop_connection`` /
``delay_response`` inject lost acks and stalled replies the client's
:class:`~repro.service.transport.RetryPolicy` rides out), closes each
window at its deadline, and returns the scenario payload the registry
tables and checks.

The payload's verdicts are the PR's contract:

* ``all_exact`` — every closed window's reconstructed total equals the
  modular-sum oracle over its accepted set, kills and all;
* ``oracle_match`` — every full-coverage window's total equals the batch
  ``metering`` scenario's true billing total for that period
  (:func:`~repro.service.loadgen.expected_window_total`);
* ``billing_exact`` — the result store's per-device extract equals the
  per-device loadgen oracle
  (:func:`~repro.service.loadgen.expected_device_total`) bit for bit
  (``None`` when drops make full coverage impossible).

Concurrency discipline: producers share one client holder; whichever
producer observes an accepted-count anchor performs the kill+restart
itself while holding the control lock, and every other producer treats
a submission error as a dead service — re-send through the fresh
client, where the ``(device, seq)`` identity turns an
already-journaled share into a harmless ``DUPLICATE``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.daemon import Admission, ServiceConfig
from repro.service.transport import RetryPolicy
from repro.service.loadgen import (
    device_ids,
    expected_device_total,
    expected_window_total,
    window_submissions,
)

__all__ = ["run_service_soak"]


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation; deterministic)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[rank]


@dataclass
class _Drive:
    """Shared mutable soak state (guarded by ``ctl`` unless noted)."""

    client: ServiceClient
    ctl: threading.Lock = field(default_factory=threading.Lock)
    attempts: int = 0
    accepted: int = 0
    shard_accepted: dict[int, int] = field(default_factory=dict)
    duplicates: int = 0
    late: int = 0
    dropped: int = 0
    pause_left: int = 0
    contributors: set[int] = field(default_factory=set)
    recoveries: list[dict] = field(default_factory=list)
    errors: list[BaseException] = field(default_factory=list)
    shard_kills: int = 0
    restart_base: int = 0


def run_service_soak(spec, service_dir: str | os.PathLike | None = None) -> dict:
    """Drive one soak per ``spec`` (a ``ServiceSoakSpec``); return the payload.

    ``service_dir`` pins the service directory (the CI smoke uses this
    to kill and resume across *processes*); by default each soak gets a
    fresh temporary directory so runs never inherit stale state.
    """
    config = ServiceConfig(
        seed=spec.seed,
        cells=spec.cells,
        queue_capacity=spec.queue_capacity,
        window_capacity=spec.window_capacity,
        fsync=spec.fsync,
    )
    cleanup: tempfile.TemporaryDirectory | None = None
    if service_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-service-soak-")
        service_dir = os.path.join(cleanup.name, "service")

    def new_client() -> ServiceClient:
        return ServiceClient(
            config,
            service_dir,
            shards=spec.shards,
            transport=spec.transport,
        )

    # Kill anchors: global accepted counts from `kill_at` sugar, plus
    # per-shard accepted counts from shard-targeted kill_daemon events.
    kills_global = deque(sorted(set(spec.kill_at)))
    kills_shard: dict[int, deque] = {}
    for event in spec.faults.events:
        if event.kind == "kill_daemon":
            kills_shard.setdefault(event.cell, deque()).append(event.round)
    for shard in kills_shard:
        kills_shard[shard] = deque(sorted(set(kills_shard[shard])))
    # Socket-only faults: SIGKILLs of single shard processes anchored on
    # that shard's accepted count, and connection drops / reply delays
    # armed at global accepted counts.
    proc_kills: dict[int, deque] = {}
    for event in spec.faults.events:
        if event.kind == "kill_shard_process":
            proc_kills.setdefault(event.cell, deque()).append(event.round)
    for shard in proc_kills:
        proc_kills[shard] = deque(sorted(set(proc_kills[shard])))
    injections: dict[int, list[tuple[str, int, int]]] = {}
    for event in spec.faults.events:
        if event.kind in ("drop_connection", "delay_response"):
            injections.setdefault(event.round, []).append(
                (event.kind, event.cell, event.duration)
            )
    pauses = {
        e.round: e.duration
        for e in spec.faults.events
        if e.kind == "pause_ingest"
    }
    ids = device_ids(spec.devices)
    throttle = spec.producers / spec.rate if spec.rate > 0 else 0.0
    # On the socket transport the producers lean on the client-side
    # RetryPolicy for transient failures (drops, delays, restarts) —
    # unless the plan paces ingest with pause_ingest, whose accounting
    # needs the producer to *see* the RETRY_AFTER answers itself.
    retry = (
        RetryPolicy(max_attempts=40, total_deadline_s=60.0)
        if spec.transport == "socket" and not pauses
        else None
    )

    drive = _Drive(client=new_client())

    def kill_restart(window: int, shard: int | None) -> None:
        """Hard-kill and restart the service (caller holds ``ctl``)."""
        drive.restart_base += drive.client.restarts
        drive.client.hard_stop()
        t0 = time.perf_counter()
        drive.client = new_client()
        record = {
            "at_accepted": drive.accepted,
            "window": window,
            "replayed_records": drive.client.journal_records,
            "recovery_s": round(time.perf_counter() - t0, 6),
        }
        if shard is not None:
            record["shard"] = shard
        drive.recoveries.append(record)

    def note_accepted(submission, window: int) -> None:
        """Post-ACCEPTED bookkeeping + anchored kills (takes ``ctl``)."""
        shard = submission.device % spec.shards
        fire: int | None | bool = False
        with drive.ctl:
            drive.accepted += 1
            drive.shard_accepted[shard] = drive.shard_accepted.get(shard, 0) + 1
            drive.contributors.add(submission.device)
            dup_due = (
                spec.duplicate_every
                and drive.accepted % spec.duplicate_every == 0
            )
            if kills_global and drive.accepted == kills_global[0]:
                kills_global.popleft()
                fire = None
            elif (
                shard in kills_shard
                and kills_shard[shard]
                and drive.shard_accepted[shard] == kills_shard[shard][0]
            ):
                kills_shard[shard].popleft()
                fire = shard
            if (
                shard in proc_kills
                and proc_kills[shard]
                and drive.shard_accepted[shard] == proc_kills[shard][0]
            ):
                # A *single shard process* dies; the supervisor restarts
                # it from its WAL while the rest of the service keeps
                # serving — the retrying client rides it out.
                proc_kills[shard].popleft()
                drive.client.kill_shard(shard)
                drive.shard_kills += 1
            for kind, cell, duration in injections.pop(drive.accepted, ()):
                if kind == "drop_connection":
                    drive.client.inject_drop(cell, duration)
                else:
                    drive.client.inject_delay(cell, duration, 0.05)
            if fire is not False:
                kill_restart(window, fire)
        if dup_due:
            # A lost-ack client re-sends; dedup must hold — through the
            # restart, if the kill just fired.
            while True:
                try:
                    echo = drive.client.submit(
                        submission.device,
                        submission.seq,
                        submission.window,
                        submission.value,
                    )
                except Exception:
                    time.sleep(0.0005)
                    continue
                break
            if echo.admission is not Admission.DUPLICATE:
                raise ServiceError(
                    f"re-sent submission was {echo.admission}, not DUPLICATE"
                )
            with drive.ctl:
                drive.duplicates += 1

    def produce(chunk: list, window: int) -> None:
        """One producer thread's share of one window's stream."""
        pending = deque(chunk)
        stall = 0
        resend = False
        while pending:
            submission = pending.popleft()
            if not resend:
                with drive.ctl:
                    if drive.pause_left == 0 and drive.attempts in pauses:
                        drive.client.pause()
                        drive.pause_left = pauses.pop(drive.attempts)
                    drive.attempts += 1
            if throttle:
                time.sleep(throttle)
            try:
                result = drive.client.submit(
                    submission.device,
                    submission.seq,
                    submission.window,
                    submission.value,
                    retry=retry,
                )
            except Exception:
                # The service died under us (another producer's kill is
                # mid-restart).  Re-send through the fresh client; dedup
                # absorbs the ambiguity.
                pending.appendleft(submission)
                resend = True
                time.sleep(0.0005)
                continue
            if result.accepted:
                stall = 0
                note_accepted(submission, window)
                resend = False
            elif result.admission is Admission.DUPLICATE and (
                resend or retry is not None
            ):
                # The earlier send was journaled after all: the ack was
                # lost to the kill (or dropped by a fault and re-sent
                # inside the retry policy), not the share.  It counts.
                note_accepted(submission, window)
                resend = False
            elif result.retryable:
                pending.append(submission)
                resend = False
                with drive.ctl:
                    if drive.client.paused:
                        drive.pause_left -= 1
                        if drive.pause_left <= 0:
                            drive.client.resume()
                        continue
                # A shard's pending-queue pressure only clears when a
                # window closes; if every pending share is stuck behind
                # it, the deadline fires and they miss the window.
                stall += 1
                if stall > len(pending):
                    with drive.ctl:
                        drive.dropped += len(pending)
                    pending.clear()
            else:
                # LATE/SHED/DUPLICATE are final; the device's reading
                # missed this window.
                resend = False
                with drive.ctl:
                    drive.dropped += 1

    rows: list[dict] = []
    try:
        started = time.perf_counter()
        for window in range(spec.windows):
            stream = window_submissions(ids, window, spec.base_load_wh, spec.seed)
            drive.contributors = set()
            if spec.producers == 1:
                produce(stream, window)
            else:
                chunks = [stream[p :: spec.producers] for p in range(spec.producers)]
                threads = [
                    threading.Thread(
                        target=_trap(produce, drive), args=(chunk, window),
                        name=f"soak-producer-{p}",
                    )
                    for p, chunk in enumerate(chunks)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if drive.errors:
                    raise drive.errors[0]
            if len(drive.contributors) != len(ids):
                drive.client.mark_degraded(window)
            summary = drive.client.close_window(window)
            if spec.late_replays and window + 1 < spec.windows:
                # Deadline check: a straggler past the close must be
                # refused deterministically, never aggregated.
                replay = window_submissions(
                    ids, window, spec.base_load_wh, spec.seed
                )[0]
                echo = drive.client.submit(
                    replay.device, replay.seq, replay.window, replay.value
                )
                if echo.admission is not Admission.LATE:
                    raise ServiceError(
                        f"post-deadline submission was {echo.admission}, "
                        "not LATE"
                    )
                drive.late += 1
            oracle_wh = expected_window_total(ids, window, spec.base_load_wh)
            full_coverage = summary.accepted == len(ids)
            rows.append({
                "window": window,
                "accepted": summary.accepted,
                "devices": summary.devices,
                "total": summary.total,
                "expected": summary.expected,
                "exact": summary.exact,
                "degraded": summary.degraded,
                "recovered": summary.recovered,
                "duplicates": summary.duplicates,
                "shed": summary.shed,
                "retried": summary.retried,
                "close_ms": round(summary.close_latency_us / 1000.0, 3),
                "oracle_wh": oracle_wh,
                "oracle_match": summary.total == oracle_wh
                if full_coverage
                else None,
            })
        elapsed = time.perf_counter() - started
        records = drive.client.journal_records
        shard_restarts = drive.restart_base + drive.client.restarts
        extract = drive.client.billing_extract()
        store_windows = drive.client.store.windows
        billing_exact: bool | None
        if drive.dropped == 0:
            billing_exact = len(extract) == len(ids) and all(
                extract[device].total
                == expected_device_total(device, spec.windows, spec.base_load_wh)
                for device in ids
            )
        else:
            billing_exact = None
        per_shard = [
            drive.shard_accepted.get(shard, 0) for shard in range(spec.shards)
        ]
        drive.client.stop()
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    return {
        "windows": rows,
        "shards": spec.shards,
        "producers": spec.producers,
        "transport": spec.transport,
        "accepted": drive.accepted,
        "accepted_per_shard": per_shard,
        "attempts": drive.attempts,
        "duplicates_rejected": drive.duplicates,
        "late_rejected": drive.late,
        "dropped": drive.dropped,
        "kills": len(drive.recoveries),
        "kills_unfired": len(kills_global)
        + sum(len(q) for q in kills_shard.values())
        + sum(len(q) for q in proc_kills.values()),
        "injections_unfired": sum(len(v) for v in injections.values()),
        "shard_kills": drive.shard_kills,
        "shard_restarts": shard_restarts,
        "recoveries": drive.recoveries,
        "journal_records": records,
        "store_windows": len(store_windows),
        "billing_exact": billing_exact,
        "all_exact": all(row["exact"] for row in rows),
        "oracle_match": all(
            row["oracle_match"] in (True, None) for row in rows
        ),
        "window_total_wh": sum(
            row["total"] for row in rows if row["total"] is not None
        ),
        "elapsed_s": round(elapsed, 6),
        "shares_per_sec": round(drive.accepted / elapsed, 3)
        if elapsed > 0
        else 0.0,
        "p99_close_ms": round(
            _percentile([row["close_ms"] for row in rows], 0.99), 3
        ),
    }


def _trap(target, drive: _Drive):
    """Wrap a producer body so thread exceptions surface to the driver."""

    def runner(*args):
        try:
            target(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised on join
            with drive.ctl:
                drive.errors.append(exc)

    return runner
