"""Shard-process supervision: one OS process per shard journal.

:class:`ShardSupervisor` is the cross-process form of
:class:`~repro.service.daemon.ShardedServiceDaemon`: the same WAL
layout (``shard-NNN.wal`` per shard, ``fold.wal`` for authoritative
closes), the same :class:`~repro.service.shard.ShardCore` admission
state machine, the same :class:`~repro.service.shard.FoldHost` recovery
verification — but each shard journal is owned by its *own daemon
process* (:func:`_shard_main`), reached over the localhost socket
transport (:mod:`repro.service.transport`), and the fold is coordinated
by the supervisor in the parent.

Responsibilities, by half:

* **Shard process** (:class:`ShardServer`, running inside the child):
  replays its WAL on start (truncating any torn tail — it is the
  journal's owner), binds an ephemeral TCP port, publishes
  ``{pid, port}`` through an atomically-replaced port file, and then
  serves its shard core.  ``CLOSE`` is idempotent for the last closed
  window, so a supervisor whose close request lost its reply can simply
  re-send it.
* **Supervisor** (parent): holds the service-directory lock, re-verifies
  every journaled fold close against recomputation *before* spawning
  anything, spawns one process per shard, monitors liveness (process
  exit + heartbeat pings) and respawns crashed shards into bit-identical
  state from their WALs, serializes window closes (collect each shard's
  window set over the wire, fold, journal to ``fold.wal``), and exposes
  the same surface :class:`~repro.service.client.ServiceClient` expects
  of a daemon.

Fault injection hooks (driven by the soak's ``FaultPlan``):
``kill_shard`` SIGKILLs a shard process (the monitor restarts it);
``inject_drop`` makes a shard admit-then-drop the next N submission
connections without replying (a true lost ack); ``inject_delay`` makes
it stall the next N admission replies past any configured deadline.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import threading
import time

from repro.core.metrics import WindowSummary
from repro.errors import ServiceError, TransportError, WireError
from repro.lintkit.lockdep import ordered_lock
from repro.service import wal, wire
from repro.service.shard import (
    FOLD_NAME,
    Admission,
    AdmissionResult,
    FoldHost,
    ServiceConfig,
    ShardCore,
    make_submission,
    shard_journal_paths,
)
from repro.service.transport import (
    OP_CLOSE_WINDOW,
    OP_FAULT_DELAY,
    OP_FAULT_DROP,
    OP_OPEN_WINDOWS,
    OP_PAUSE,
    OP_PING,
    OP_RESUME,
    OP_SHUTDOWN,
    OP_STAT_ACCEPTED,
    OP_STAT_RECORDS,
    DROP_CONNECTION,
    ShardEndpoint,
    SocketRecordServer,
    admission_from_reply,
    admission_to_reply,
)
from repro.service.windows import aggregate_shards
from repro.service.wire import ShareSubmission

__all__ = ["ShardServer", "ShardSupervisor"]

#: Port-file name per shard (same index discipline as the WALs).
PORT_PATTERN = "shard-{index:03d}.port"


def _port_path(journal_dir: pathlib.Path, index: int) -> pathlib.Path:
    return journal_dir / PORT_PATTERN.format(index=index)


def _write_port_file(path: pathlib.Path, port: int) -> None:
    """Publish ``{pid, port}`` atomically (readers never see a torn file)."""
    tmp = path.with_suffix(".port.tmp")
    tmp.write_text(json.dumps({"pid": os.getpid(), "port": port}))
    os.replace(tmp, path)


def _read_port_file(path: pathlib.Path) -> dict | None:
    try:
        info = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(info, dict):
        return None
    pid, port = info.get("pid"), info.get("port")
    if not isinstance(pid, int) or not isinstance(port, int):
        return None
    return {"pid": pid, "port": port}


class ShardServer:
    """One shard process: a :class:`~repro.service.shard.ShardCore` served
    over the socket transport (runs inside the child).

    The core runs the admission ladder against this shard's own deadline
    and pending set, so ``queue_capacity`` bounds this shard alone — the
    same per-shard meaning it has in-process.  ``CLOSE`` is idempotent
    for the last closed window, so a supervisor whose close request lost
    its reply can simply re-send it.
    """

    def __init__(
        self,
        index: int,
        shards: int,
        journal_path: str | os.PathLike,
        config: ServiceConfig,
        deadline: int = -1,
        paused: bool = False,
    ):
        self.index = index
        self.journal = wal.WindowJournal(journal_path, fsync=config.fsync)
        self._lock = ordered_lock("shardserver.state")
        self.core = ShardCore(
            index, shards, config, self.journal, deadline=deadline, paused=paused
        )
        self.core.replay(self.journal.replay())
        self._drop_pending = 0
        self._delay_pending = 0
        self._delay_s = 0.0
        self._server: SocketRecordServer | None = None

    # -- request handling ------------------------------------------------------

    def handle(self, record):
        if isinstance(record, ShareSubmission):
            return self._handle_submit(record)
        if isinstance(record, wire.ServiceRequest):
            return self._handle_control(record)
        raise ServiceError(
            f"shard {self.index} cannot serve {type(record).__name__} frames"
        )

    def _handle_submit(self, s: ShareSubmission):
        with self._lock:
            result = self.core.admit(s)
            drop = delay = False
            if result.accepted and self._drop_pending > 0:
                self._drop_pending -= 1
                drop = True
            elif self._delay_pending > 0:
                self._delay_pending -= 1
                delay = True
        if drop:
            # The share is journaled and admitted; the ack is lost.  The
            # client's re-send comes back DUPLICATE — which is the point.
            return DROP_CONNECTION
        if delay:
            time.sleep(self._delay_s)
        return [admission_to_reply(result)]

    def _handle_control(self, request: wire.ServiceRequest):
        op = request.op
        if op == OP_PING:
            return [wire.ServiceReply(op=op, ok=True, value=self.index)]
        if op == OP_STAT_RECORDS:
            return [wire.ServiceReply(op=op, ok=True, value=self.journal.records)]
        if op == OP_STAT_ACCEPTED:
            return [wire.ServiceReply(op=op, ok=True, value=len(self.core.seen))]
        # CLOSE and OPEN_WINDOWS stream records after the reply.
        records: list = []
        if op == OP_CLOSE_WINDOW:
            with self._lock:
                records = list(self.core.close(request.window))
        elif op == OP_OPEN_WINDOWS:
            with self._lock:
                records = [
                    wire.ServiceReply(op=op, ok=True, value=window)
                    for window in self.core.open_windows
                ]
        elif op in (OP_PAUSE, OP_RESUME):
            with self._lock:
                self.core.paused = op == OP_PAUSE
        elif op == OP_FAULT_DROP:
            with self._lock:
                self._drop_pending += max(0, request.value)
        elif op == OP_FAULT_DELAY:
            with self._lock:
                self._delay_pending += max(0, request.window)
                self._delay_s = request.value / 1_000_000.0
        elif op == OP_SHUTDOWN:
            if self._server is not None:
                self._server.stop()
        else:
            raise ServiceError(f"unknown control op {op}")
        return [wire.ServiceReply(op=op, ok=True, value=len(records)), *records]

    # -- lifetime --------------------------------------------------------------

    def run(self, port_file: pathlib.Path) -> None:
        """Bind, publish the port, serve until SHUTDOWN; then sync out."""
        self._server = SocketRecordServer(self.handle)
        _write_port_file(port_file, self._server.port)
        try:
            self._server.serve_forever()
        finally:
            # Give in-flight connection threads a beat to finish their
            # current request before the journal handle goes away.
            time.sleep(0.05)
            with self._lock:
                self.journal.sync()
                self.journal.close()


def _shard_main(
    index: int,
    shards: int,
    journal_path: str,
    port_file: str,
    config: ServiceConfig,
    deadline: int,
    paused: bool,
) -> None:
    """Child-process entry point (spawn-safe: picklable args only)."""
    # The supervisor owns process-group signals; a shard dies by SIGKILL
    # or by SHUTDOWN, never by an inherited SIGINT from a test runner.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = ShardServer(index, shards, journal_path, config, deadline, paused)
    server.run(pathlib.Path(port_file))


class ShardSupervisor(FoldHost):
    """Own one daemon process per shard journal; coordinate the fold.

    Presents the :class:`~repro.service.daemon.ShardedServiceDaemon`
    surface (``submit``/``close_window``/``pause``/``window_records``/
    ``hard_stop``...) so :class:`~repro.service.client.ServiceClient`
    can treat ``transport="socket"`` as one more backend.  Extra,
    socket-only surface: :meth:`kill_shard`, :meth:`inject_drop`,
    :meth:`inject_delay`, and ``restarts``.
    """

    def __init__(
        self,
        config: ServiceConfig,
        journal_dir: str | os.PathLike,
        shards: int = 1,
        request_deadline_s: float = 5.0,
        control_deadline_s: float = 15.0,
        heartbeat_s: float = 0.05,
        heartbeat_misses: int = 5,
    ):
        if heartbeat_s <= 0 or heartbeat_misses < 1:
            raise ServiceError("heartbeat settings must be positive")
        self.config = config
        self.shards = shards
        self.journal_dir = pathlib.Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.request_deadline_s = request_deadline_s
        self.control_deadline_s = control_deadline_s
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self._paths = shard_journal_paths(self.journal_dir, shards)
        self._lock = wal.ServiceDirLock(self.journal_dir)
        self._lock.acquire()
        try:
            self._state = ordered_lock("supervisor.state")
            self._close_lock = ordered_lock("service.close")
            self._paused = False
            self._stopped = False
            #: the window a close_window call is collecting, else -1.
            self._closing = -1
            self.restarts = 0
            self.restart_log: list[dict] = []
            # Verify before spawning: a shard process is never handed a
            # journal that disagrees with the authoritative fold.  The
            # read-only cores only count; each shard process replays its
            # own journal into a live core.
            fold_path = self.journal_dir / FOLD_NAME
            cores = self._recover(
                wal.replay_journal(fold_path),
                [wal.replay_journal(path) for path in self._paths],
                aggregate_shards,
            )
            self._shard_accepted = [len(core.seen) for core in cores]
            self._fold = wal.WindowJournal(fold_path, fsync=config.fsync)
            self._ctx = multiprocessing.get_context("spawn")
            self._processes: list = [None] * shards
            self._spawn_locks = [
                ordered_lock("supervisor.spawn", index=index)
                for index in range(shards)
            ]
            self._endpoints = [
                ShardEndpoint(
                    self._resolver(index), request_deadline_s=request_deadline_s
                )
                for index in range(shards)
            ]
            self._monitor_endpoints = [
                ShardEndpoint(
                    self._resolver(index),
                    request_deadline_s=min(1.0, request_deadline_s),
                )
                for index in range(shards)
            ]
            for index in range(shards):
                self._spawn(index)
            self._monitor_stop = threading.Event()
            self._monitor_thread = threading.Thread(
                target=self._monitor, name="shard-monitor", daemon=True
            )
            self._monitor_thread.start()
        except BaseException:
            self._lock.release()
            raise

    # -- process lifecycle -----------------------------------------------------

    def _resolver(self, index: int):
        def resolve() -> tuple[str, int]:
            process = self._processes[index]
            info = _read_port_file(_port_path(self.journal_dir, index))
            if (
                info is None
                or process is None
                or process.pid is None
                or info["pid"] != process.pid
            ):
                raise TransportError(f"shard {index} has no live port")
            return ("127.0.0.1", info["port"])

        return resolve

    def _spawn(self, index: int, timeout_s: float = 30.0) -> float:
        """Start (or restart) one shard process; wait for its port file."""
        port_file = _port_path(self.journal_dir, index)
        try:
            port_file.unlink()
        except FileNotFoundError:
            pass
        with self._state:
            # A shard respawned mid-close may already have answered
            # CLOSE(window): it comes back with that window closed and
            # serves the re-sent CLOSE from its journal.
            deadline = max(self._deadline, self._closing)
            paused = self._paused
        started = time.perf_counter()
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                index,
                self.shards,
                str(self._paths[index]),
                str(port_file),
                self.config,
                deadline,
                paused,
            ),
            name=f"repro-shard-{index:03d}",
            daemon=True,
        )
        process.start()
        self._processes[index] = process
        while True:
            info = _read_port_file(port_file)
            if info is not None and info["pid"] == process.pid:
                return time.perf_counter() - started
            if not process.is_alive():
                raise ServiceError(
                    f"shard {index} process died during startup "
                    f"(exit {process.exitcode})"
                )
            if time.perf_counter() - started > timeout_s:
                process.kill()
                raise ServiceError(
                    f"shard {index} did not publish a port within {timeout_s}s"
                )
            time.sleep(0.005)

    def _respawn(self, index: int) -> None:
        # Count the restart *before* the spawn: the new process only
        # becomes reachable partway through _spawn, so anything that
        # observes the revived shard (a close that reconnected, a
        # billing extract after recovery) is guaranteed to also observe
        # ``restarts`` >= 1.  The log entry trails because it carries
        # the measured recovery time; poll ``restart_log`` itself when
        # the timing is what you need.
        with self._state:
            self.restarts += 1
        recovery_s = self._spawn(index)
        with self._state:
            self.restart_log.append(
                {"shard": index, "recovery_s": round(recovery_s, 6)}
            )

    def _monitor(self) -> None:
        misses = [0] * self.shards
        tick = 0
        while not self._monitor_stop.wait(self.heartbeat_s):
            tick += 1
            for index in range(self.shards):
                if self._monitor_stop.is_set():
                    return
                with self._spawn_locks[index]:
                    process = self._processes[index]
                    if process is None:
                        continue
                    if not process.is_alive():
                        # A crashed shard restarts into bit-identical
                        # state from its WAL (replay on child start).
                        misses[index] = 0
                        self._respawn(index)
                        continue
                    if tick % 4 != 0:
                        continue
                    try:
                        self._monitor_endpoints[index].request(
                            wire.ServiceRequest(op=OP_PING)
                        )
                    except (TransportError, WireError, ServiceError):
                        misses[index] += 1
                    else:
                        misses[index] = 0
                    if misses[index] >= self.heartbeat_misses:
                        misses[index] = 0
                        process.kill()
                        process.join()
                        self._respawn(index)

    # -- admission -------------------------------------------------------------

    def submit(
        self, device: int, seq: int, window: int, value: int
    ) -> AdmissionResult:
        """Route one submission to its shard over the socket.

        The LATE gate runs supervisor-side against the authoritative
        fold deadline, so a shard that restarted with a stale deadline
        can never accept a share for a closed window.
        """
        submission = make_submission(device, seq, window, value)
        with self._state:
            if self._stopped:
                raise ServiceError("shard supervisor is stopped")
            if window <= self._deadline:
                late = AdmissionResult(Admission.LATE, window)
                self._tally(late)
                return late
        shard = self.shard_of(device)
        reply = self._endpoints[shard].request(submission)
        if not isinstance(reply, wire.AdmissionReply):
            raise WireError(
                f"shard {shard} answered a submission with "
                f"{type(reply).__name__}"
            )
        result = admission_from_reply(reply)
        with self._state:
            if result.accepted:
                self._shard_accepted[shard] += 1
            else:
                self._tally(result)
        return result

    # -- control plane ---------------------------------------------------------

    def _control(self, index: int, request: wire.ServiceRequest, trailing=None):
        """One control request, retried through shard restarts."""
        started = time.monotonic()
        while True:
            try:
                return self._endpoints[index].request(request, trailing=trailing)
            except TransportError as exc:
                if time.monotonic() - started > self.control_deadline_s:
                    raise ServiceError(
                        f"shard {index} unreachable for control op "
                        f"{request.op}: {exc}"
                    ) from exc
                time.sleep(0.02)

    def _stat(self, op: int) -> int:
        total = 0
        for index in range(self.shards):
            reply = self._control(index, wire.ServiceRequest(op=op))
            total += reply.value
        return total

    def pause(self) -> None:
        with self._state:
            self._paused = True
        for index in range(self.shards):
            self._control(index, wire.ServiceRequest(op=OP_PAUSE))

    def resume(self) -> None:
        with self._state:
            self._paused = False
        for index in range(self.shards):
            self._control(index, wire.ServiceRequest(op=OP_RESUME))

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def pending(self) -> int:
        """Accepted-but-unclosed submissions, exact even across lost acks
        (shard journals are the ground truth, not supervisor counters)."""
        with self._state:
            closed = sum(s.accepted for s in self._closed.values())
        return self._stat(OP_STAT_ACCEPTED) - closed

    @property
    def accepted_per_shard(self) -> tuple[int, ...]:
        return tuple(self._shard_accepted)

    @property
    def open_windows(self) -> tuple[int, ...]:
        """Windows any shard core holds accepted shares for."""
        windows: set[int] = set()
        for index in range(self.shards):
            _reply, records = self._control(
                index,
                wire.ServiceRequest(op=OP_OPEN_WINDOWS),
                trailing=OP_OPEN_WINDOWS,
            )
            for record in records:
                if not isinstance(record, wire.ServiceReply):
                    raise WireError(
                        f"shard {index} streamed {type(record).__name__} "
                        "inside an open-windows reply"
                    )
                windows.add(record.value)
        return tuple(sorted(windows))

    @property
    def journal_records(self) -> int:
        return self._stat(OP_STAT_RECORDS) + self._fold.records

    # -- fault injection -------------------------------------------------------

    def kill_shard(self, index: int) -> int:
        """SIGKILL one shard process (the monitor restarts it); returns
        the killed pid."""
        if not 0 <= index < self.shards:
            raise ServiceError(f"no shard {index} in a {self.shards}-shard service")
        process = self._processes[index]
        if process is None or process.pid is None:
            raise ServiceError(f"shard {index} has no live process")
        pid = process.pid
        process.kill()
        return pid

    def inject_drop(self, index: int, count: int) -> None:
        """Make shard ``index`` admit-then-drop its next ``count``
        submission connections without replying (lost acks)."""
        self._control(
            index, wire.ServiceRequest(op=OP_FAULT_DROP, value=count)
        )

    def inject_delay(self, index: int, count: int, delay_s: float) -> None:
        """Make shard ``index`` stall its next ``count`` admission
        replies by ``delay_s`` (deadline-miss injection)."""
        self._control(
            index,
            wire.ServiceRequest(
                op=OP_FAULT_DELAY,
                window=count,
                value=int(delay_s * 1_000_000),
            ),
        )

    # -- window lifecycle ------------------------------------------------------

    def close_window(self, window: int) -> WindowSummary:
        """Close one window across every shard process; fold; journal.

        Each shard's ``CLOSE`` atomically advances that shard's deadline
        and returns its accepted set for the window; the request is
        retried through restarts (it is idempotent shard-side), so a
        kill *during* a close still converges.  The fold lands in
        ``fold.wal`` before the window is considered closed — a
        supervisor death before that append leaves the window open, and
        recovery re-closes it onto the same bits.
        """
        with self._close_lock:
            with self._state:
                if self._stopped:
                    raise ServiceError("shard supervisor is stopped")
                self._check_open(window)
                self._closing = window
            try:
                shard_subs = {
                    index: self._collect_close(index, window)
                    for index in range(self.shards)
                }
                return self._fold_close(window, shard_subs, aggregate_shards)
            finally:
                with self._state:
                    self._closing = -1

    def _collect_close(self, index: int, window: int) -> list[ShareSubmission]:
        """Send ``CLOSE(window)`` to one shard; return its accepted set."""
        _reply, extras = self._control(
            index,
            wire.ServiceRequest(op=OP_CLOSE_WINDOW, window=window),
            trailing=OP_CLOSE_WINDOW,
        )
        for record in extras:
            if not isinstance(record, ShareSubmission):
                raise WireError(
                    f"shard {index} streamed {type(record).__name__} "
                    "inside a close"
                )
            if record.window != window:
                raise ServiceError(
                    f"shard {index} answered close({window}) with a "
                    f"window-{record.window} submission"
                )
        return list(extras)

    # -- shutdown --------------------------------------------------------------

    def _stop_monitor(self) -> None:
        self._monitor_stop.set()
        if self._monitor_thread.is_alive():
            self._monitor_thread.join(timeout=5.0)

    def stop(self) -> None:
        """Graceful stop: SHUTDOWN every shard, reap, release the lock."""
        with self._state:
            if self._stopped:
                return
            self._stopped = True
        self._stop_monitor()
        for index in range(self.shards):
            try:
                self._endpoints[index].request(
                    wire.ServiceRequest(op=OP_SHUTDOWN)
                )
            except (TransportError, WireError, ServiceError):
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()
        self._teardown()

    def hard_stop(self) -> None:
        """The kill model: SIGKILL every shard process, no drain.

        Journal-before-ack makes this safe at any instant — every
        acknowledged share is fsync'd in some shard WAL, and the next
        supervisor over this directory re-verifies and resumes
        bit-identically.
        """
        with self._state:
            if self._stopped:
                return
            self._stopped = True
        self._stop_monitor()
        for process in self._processes:
            if process is not None and process.is_alive():
                process.kill()
        for process in self._processes:
            if process is not None:
                process.join(timeout=5.0)
        self._teardown()

    def _teardown(self) -> None:
        for endpoint in self._endpoints + self._monitor_endpoints:
            endpoint.close()
        self._fold.sync()
        self._fold.close()
        self._lock.release()
