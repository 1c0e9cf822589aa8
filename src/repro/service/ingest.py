"""The concurrent ingestion front: a real queue boundary before the WAL.

:class:`IngestFront` is the thread-pool front end of the service: N
producer threads (device gateways, load generators, test harnesses)
call :meth:`submit` concurrently; each call enqueues one submission on a
bounded :class:`queue.Queue` and returns a :class:`concurrent.futures
.Future` that resolves to the daemon's explicit
:class:`~repro.service.shard.AdmissionResult`.  Dispatcher threads
drain the queue into the sharded daemon, whose per-shard WAL remains the
**serialization point**: a submission's fate is decided exactly when its
journal append lands, never by queue position, so journal-before-ack
survives the extra hop — an acknowledged future means a journaled share.

The queue is pure backpressure plumbing.  It carries no durability (a
kill loses everything in flight, which is exactly the pre-ack loss the
dedup identity ``(device, seq)`` already covers: the producer re-sends
and is answered ``ACCEPTED`` or ``DUPLICATE``, never double-counted) and
no ordering promises beyond what the daemon's admission rules enforce.
When the queue is full, :meth:`submit` answers ``RETRY_AFTER``
immediately instead of blocking the producer — the same shed-early
stance the daemon takes at its own ``queue_capacity``.

:meth:`barrier` flushes the front: it blocks until every submission
enqueued *before* the call has been admitted (or refused) by the
daemon.  Window closes run behind the barrier, so "close window N" has
the same meaning it has against a bare daemon.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future

from repro.errors import ServiceError
from repro.lintkit.lockdep import ordered_lock
from repro.service.shard import Admission, AdmissionResult

__all__ = ["IngestFront"]

#: Sentinel telling a dispatcher thread to exit.
_STOP = object()


class IngestFront:
    """Bounded-queue, multi-dispatcher front end over one daemon.

    ``daemon`` is anything with the daemon ``submit`` signature (a
    :class:`~repro.service.daemon.ShardedServiceDaemon`); the front
    never inspects daemon state beyond calling ``submit``.

    ``dispatchers`` bounds write concurrency *into* the daemon.  The
    daemon's per-shard locks already serialize each journal, so more
    dispatchers than shards buys nothing; fewer serializes cross-shard
    traffic at the front.  ``capacity`` bounds in-flight submissions —
    enqueued but not yet admitted — and is the front's backpressure
    surface.
    """

    def __init__(self, daemon, capacity: int = 1024, dispatchers: int = 1):
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        if dispatchers < 1:
            raise ServiceError(f"dispatchers must be >= 1, got {dispatchers}")
        self.daemon = daemon
        self.capacity = capacity
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._closed = False
        self._close_lock = ordered_lock("ingest.close")
        self.enqueued_total = 0
        self.refused_total = 0
        self._threads = [
            threading.Thread(
                target=self._dispatch, name=f"ingest-dispatch-{i}", daemon=True
            )
            for i in range(dispatchers)
        ]
        for thread in self._threads:
            thread.start()

    # -- producer side ---------------------------------------------------------

    def submit(
        self, device: int, seq: int, window: int, value: int
    ) -> "Future[AdmissionResult]":
        """Enqueue one submission; the future resolves to its admission.

        Never blocks on a full queue: the future resolves immediately to
        ``RETRY_AFTER`` so producers can apply their own retry policy.
        """
        future: Future[AdmissionResult] = Future()
        with self._close_lock:
            if self._closed:
                raise ServiceError("ingestion front is stopped")
            try:
                self._queue.put_nowait((future, device, seq, window, value))
            except queue.Full:
                self.refused_total += 1
                future.set_result(
                    AdmissionResult(Admission.RETRY_AFTER, window)
                )
                return future
            self.enqueued_total += 1
        return future

    def barrier(self) -> None:
        """Block until everything enqueued before this call is admitted."""
        self._queue.join()

    # -- dispatcher side -------------------------------------------------------

    def _dispatch(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            future, device, seq, window, value = item
            try:
                result = self.daemon.submit(device, seq, window, value)
            except BaseException as exc:  # noqa: BLE001 - relayed to the caller
                future.set_exception(exc)
            else:
                future.set_result(result)
            finally:
                self._queue.task_done()

    # -- lifecycle -------------------------------------------------------------

    def stop(self) -> None:
        """Flush the queue, then stop every dispatcher (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.join()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()

    def kill(self) -> None:
        """Simulated hard kill: stop accepting, abandon the queue.

        In-flight submissions are lost pre-ack, exactly like a process
        kill — producers re-send under ``(device, seq)`` and the dedup
        identity keeps anything journaled from double-counting.  The
        dispatchers drain what is queued (failing fast against the
        killed daemon's closed journals, each failure relayed to its
        future) and then exit.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(_STOP)

    def __enter__(self) -> "IngestFront":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
