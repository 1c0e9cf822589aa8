"""The socket transport: length-prefixed wire frames over TCP localhost.

This module is the *byte-moving* half of the cross-process service
boundary (the process-owning half is :mod:`repro.service.supervisor`).
It reuses the :mod:`repro.service.wire` codec verbatim — a transport
frame is exactly ``wire.frame(record)``: ``RW`` magic + payload length
+ crc32 + flat-scalar payload — and adds only what sockets need:

* **stream framing** over any ``recv(n) -> bytes`` callable
  (:func:`read_frame`), strict at every layer: bad magic, an oversized
  length (refused *before* allocation), a CRC mismatch or an
  undecodable payload raise :class:`~repro.errors.WireError`; a peer
  that vanishes mid-frame raises :class:`~repro.errors.TransportError`.
  Malformed bytes can never hang the reader or crash the interpreter.
* **request deadlines** — the socket timeout set when the connection
  is made bounds every send and reply read; a deadline miss closes the
  connection (a half-read reply must never desynchronise the stream)
  and surfaces as ``TransportError``.
* a client-side :class:`RetryPolicy` — decorrelated-jitter backoff in
  the exact shape of ``CampaignExecutor._backoff_delay``, honoring the
  daemon's ``retry_after_s`` hints, capped by a total deadline.  It
  retries precisely the *unknown-outcome* (``TransportError``) and
  *transient* (``RETRY_AFTER``) cases; the idempotent ``(device, seq)``
  identity makes a re-send after a lost ack come back ``DUPLICATE``,
  which callers treat as success.
* :class:`ShardEndpoint` — one persistent connection to one shard
  server, re-resolved and re-dialed after any error (a restarted shard
  listens on a fresh port).
* :class:`SocketRecordServer` — the accept-loop a shard server runs:
  thread per connection, one reply (plus optional trailing frames) per
  request, structured :class:`~repro.service.wire.ErrorReply` frames
  for handler failures, and a :data:`DROP_CONNECTION` escape hatch for
  fault injection (admit, then slam the connection — a real lost ack).
"""

from __future__ import annotations

import random
import socket
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ServiceError, TransportError, WireError
from repro.lintkit.lockdep import ordered_lock
from repro.service import wire
from repro.service.shard import Admission, AdmissionResult

__all__ = [
    "DROP_CONNECTION",
    "MAX_FRAME_BYTES",
    "RetryPolicy",
    "ShardEndpoint",
    "SocketRecordServer",
    "admission_from_reply",
    "admission_to_reply",
    "read_frame",
    "recv_record",
    "send_record",
]

#: Hard cap on one frame's payload (a submission is tens of bytes; even
#: a full window of trailing close frames ships frame by frame).  An
#: advertised length past this is refused before any allocation.
MAX_FRAME_BYTES = 1 << 20

#: Control-plane ops (``ServiceRequest.op``).
OP_PING = 1
OP_CLOSE_WINDOW = 2
OP_PAUSE = 3
OP_RESUME = 4
OP_STAT_RECORDS = 5
OP_STAT_ACCEPTED = 6
OP_FAULT_DROP = 7
OP_FAULT_DELAY = 8
OP_SHUTDOWN = 9
OP_OPEN_WINDOWS = 10

#: Handler return sentinel: close the connection without replying.
DROP_CONNECTION = object()

_HEADER_SIZE = wire._FRAME_HEADER.size

#: Outcome string on the wire -> :class:`Admission`.
_ADMISSIONS = {admission.value: admission for admission in Admission}


# -- admission <-> frame conversion -------------------------------------------


def admission_to_reply(result: AdmissionResult) -> wire.AdmissionReply:
    """The daemon's admission answer as a transport frame."""
    return wire.AdmissionReply(
        admission=result.admission.value,
        window=result.window,
        retry_after_s=result.retry_after_s,
    )


def admission_from_reply(reply: wire.AdmissionReply) -> AdmissionResult:
    """Decode an :class:`AdmissionReply`; unknown outcome strings are a
    wire error (a skewed peer, not a transient)."""
    admission = _ADMISSIONS.get(reply.admission)
    if admission is None:
        raise WireError(
            f"unknown admission outcome {reply.admission!r} on the wire"
        )
    return AdmissionResult(admission, reply.window, reply.retry_after_s)


# -- stream framing ------------------------------------------------------------


def _read_exact(recv: Callable[[int], bytes], n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``TransportError`` (never spin)."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        piece = recv(remaining)
        if not piece:
            raise TransportError(
                f"connection closed {n - remaining} byte(s) into a "
                f"{n}-byte read"
            )
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def read_frame(recv: Callable[[int], bytes]) -> Any | None:
    """Read and decode one frame from a byte stream.

    Returns ``None`` on a clean EOF at a frame boundary (the peer closed
    between requests).  Anything malformed — bad magic, a length past
    :data:`MAX_FRAME_BYTES` (checked before the payload is read), a CRC
    mismatch, an undecodable record — raises ``WireError``; an EOF
    *inside* a frame raises ``TransportError``.
    """
    first = recv(_HEADER_SIZE)
    if not first:
        return None
    if len(first) < _HEADER_SIZE:
        first += _read_exact(recv, _HEADER_SIZE - len(first))
    magic, length, crc = wire._FRAME_HEADER.unpack(first)
    if magic != wire.FRAME_MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame advertises {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte transport cap"
        )
    payload = _read_exact(recv, length) if length else b""
    if zlib.crc32(payload) != crc:
        raise WireError("frame CRC mismatch")
    return wire.decode_record(payload)


def send_record(sock: socket.socket, record: Any) -> None:
    """Frame and send one record (``TransportError`` on a dead peer)."""
    try:
        sock.sendall(wire.frame(record))
    except (OSError, ValueError) as exc:
        raise TransportError(f"send failed: {exc}") from exc


def recv_record(sock: socket.socket) -> Any | None:
    """Read one frame from a socket (deadline = the socket's timeout)."""

    def recv(n: int) -> bytes:
        try:
            return sock.recv(n)
        except socket.timeout as exc:
            raise TransportError("request deadline exceeded") from exc
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc

    return read_frame(recv)


# -- client-side retry ---------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Idempotent re-send policy for ``submit`` (and control requests).

    Retries ``TransportError`` (outcome unknown — the ``(device, seq)``
    identity makes the re-send safe; a ``DUPLICATE`` answer means the
    first send landed and is returned as-is, i.e. treated as success by
    idempotent callers) and ``RETRY_AFTER`` answers (transient pressure;
    sleeps at least the daemon's ``retry_after_s`` hint).  Every other
    outcome — ``ACCEPTED``, ``DUPLICATE``, ``LATE``, ``SHED`` — is final
    and returned immediately.  Backoff between attempts is decorrelated
    jitter in the exact shape of ``CampaignExecutor._backoff_delay``
    (re-stated here so the service layer does not import the analysis
    stack): ``min(cap, uniform(base, max(base, prev * 3)))``.

    ``ServiceError`` (a broken contract, a stopped client) is never
    retried.  When every attempt fails, raises ``ServiceError`` chaining
    the last transport error.
    """

    max_attempts: int = 12
    backoff_base_s: float = 0.002
    max_backoff_s: float = 0.25
    total_deadline_s: float = 30.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServiceError(
                f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.max_backoff_s < 0:
            raise ServiceError("RetryPolicy backoff bounds must be >= 0")
        if self.total_deadline_s <= 0:
            raise ServiceError(
                f"RetryPolicy.total_deadline_s must be > 0, "
                f"got {self.total_deadline_s}"
            )

    def _delay(self, rng: random.Random, prev_s: float) -> float:
        # CampaignExecutor._backoff_delay's decorrelated-jitter recipe.
        if self.backoff_base_s <= 0:
            return 0.0
        return min(
            self.max_backoff_s,
            rng.uniform(
                self.backoff_base_s, max(self.backoff_base_s, prev_s * 3.0)
            ),
        )

    def run(
        self,
        send: Callable[[], AdmissionResult],
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> AdmissionResult:
        """Drive ``send`` to a final admission under this policy.

        The jitter generator is seeded when a retry first needs a delay,
        so a first-try success (almost every submit) never builds one;
        the draws, and so the sleeps, are those of a generator seeded up
        front.
        """
        rng: random.Random | None = None
        started = clock()
        prev_delay = self.backoff_base_s
        last_error: TransportError | None = None
        attempt = 0
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = send()
            except TransportError as exc:
                last_error = exc
                hint = 0.0
            else:
                if not result.retryable:
                    return result
                last_error = None
                hint = result.retry_after_s or 0.0
            if rng is None:
                rng = random.Random(self.seed)
            delay = max(hint, self._delay(rng, prev_delay))
            prev_delay = max(prev_delay, delay)
            if attempt >= self.max_attempts:
                break
            if clock() - started + delay > self.total_deadline_s:
                break
            sleep(delay)
        detail = (
            f"last transport error: {last_error}"
            if last_error is not None
            else "still RETRY_AFTER"
        )
        raise ServiceError(
            f"retry budget exhausted after {attempt} attempt(s) "
            f"({self.total_deadline_s}s deadline); {detail}"
        ) from last_error


# -- client-side endpoint ------------------------------------------------------


class ShardEndpoint:
    """One persistent, self-healing connection to one shard server.

    ``resolve`` returns the shard's current ``(host, port)`` — it is
    re-invoked on every (re)connect, because a restarted shard process
    listens on a fresh ephemeral port.  Any error on a request closes
    the connection (a timed-out request may leave an unread reply in
    the stream; reconnecting is the only safe resynchronisation) and
    the next request re-dials.  A lock serializes requests, so many
    producer threads can share one endpoint.
    """

    def __init__(
        self,
        resolve: Callable[[], tuple[str, int]],
        request_deadline_s: float = 5.0,
    ):
        if request_deadline_s <= 0:
            raise ServiceError(
                f"request_deadline_s must be > 0, got {request_deadline_s}"
            )
        self._resolve = resolve
        self.request_deadline_s = request_deadline_s
        self._sock: socket.socket | None = None
        self._lock = ordered_lock("transport.endpoint")

    def _connected(self) -> socket.socket:
        if self._sock is None:
            host, port = self._resolve()
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self.request_deadline_s
                )
            except OSError as exc:
                raise TransportError(
                    f"connect to {host}:{port} failed: {exc}"
                ) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass

    def request(
        self, record: Any, trailing: int | None = None
    ) -> Any | tuple[Any, list[Any]]:
        """Send one record, read the reply (strict, deadline-bound).

        With ``trailing=op``, and the reply being a successful
        ``ServiceReply`` for that op, also reads ``reply.value``
        trailing frames (a close's submissions, a shard's open windows).  An
        :class:`~repro.service.wire.ErrorReply` re-raises as the named
        error class; a mid-request failure of any kind drops the
        connection before propagating.
        """
        with self._lock:
            try:
                sock = self._connected()
                send_record(sock, record)
                reply = recv_record(sock)
                if reply is None:
                    raise TransportError("peer closed before replying")
                extras: list[Any] = []
                if (
                    trailing is not None
                    and isinstance(reply, wire.ServiceReply)
                    and reply.op == trailing
                    and reply.ok
                ):
                    for _ in range(reply.value):
                        extra = recv_record(sock)
                        if extra is None:
                            raise TransportError(
                                "peer closed mid trailing stream"
                            )
                        extras.append(extra)
            except (TransportError, WireError):
                self._drop()
                raise
            if isinstance(reply, wire.ErrorReply):
                error_cls = WireError if reply.code == "wire" else ServiceError
                raise error_cls(f"shard error: {reply.message}")
            if trailing is not None:
                return reply, extras
            return reply

    def close(self) -> None:
        with self._lock:
            self._drop()


# -- server-side accept loop ---------------------------------------------------


class SocketRecordServer:
    """Thread-per-connection frame server around a ``handler(record)``.

    The handler returns the list of records to send back (first the
    reply, then any trailing frames), or :data:`DROP_CONNECTION` to
    close the connection without replying (fault injection).  Handler
    exceptions become structured :class:`~repro.service.wire.ErrorReply`
    frames — a client bug or a fault can never kill the server; a
    malformed *frame* from the peer is answered with a ``wire`` error
    and the connection closed (the stream position is unknowable).
    """

    def __init__(self, handler: Callable[[Any], Any], host: str = "127.0.0.1"):
        self._handler = handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()
        self._stopping = threading.Event()

    def serve_forever(self) -> None:
        """Accept until :meth:`stop`; returns after the listener closes."""
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stopping.is_set():
                try:
                    record = recv_record(conn)
                except WireError as exc:
                    try:
                        send_record(
                            conn, wire.ErrorReply(code="wire", message=str(exc))
                        )
                    except TransportError:
                        pass
                    return
                except TransportError:
                    return
                if record is None:
                    return
                try:
                    replies = self._handler(record)
                except ServiceError as exc:
                    replies = [
                        wire.ErrorReply(code="service", message=str(exc))
                    ]
                except Exception as exc:  # noqa: BLE001 - server must survive
                    replies = [
                        wire.ErrorReply(code="internal", message=repr(exc))
                    ]
                if replies is DROP_CONNECTION:
                    return
                try:
                    for reply in replies:
                        send_record(conn, reply)
                except TransportError:
                    return

    def stop(self) -> None:
        """Stop accepting and unblock :meth:`serve_forever`."""
        self._stopping.set()
        # Closing the listener does not wake a thread blocked in
        # accept() on Linux; poke it with a throwaway connection first.
        try:
            with socket.create_connection((self.host, self.port), timeout=1.0):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
