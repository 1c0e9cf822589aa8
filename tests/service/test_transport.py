"""Socket-transport tests: strict framing under fuzz, retry policy, endpoints.

The robustness contract under test: no byte stream a peer can send —
truncated, bit-flipped, oversized, or garbage — may hang the reader,
crash the interpreter, or decode into a record it did not carry.  Every
malformed input surfaces as :class:`~repro.errors.WireError` (malformed
bytes) or :class:`~repro.errors.TransportError` (the stream ended
mid-frame); both are deterministic, typed, and caught at the boundary.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.errors import ServiceError, TransportError, WireError
from repro.service import wire
from repro.service.daemon import Admission, AdmissionResult
from repro.service.transport import (
    DROP_CONNECTION,
    MAX_FRAME_BYTES,
    OP_PING,
    RetryPolicy,
    ShardEndpoint,
    SocketRecordServer,
    admission_from_reply,
    admission_to_reply,
    read_frame,
    send_record,
)


def buffer_recv(data: bytes):
    """A ``recv(n)`` over a fixed byte buffer (EOF when drained)."""
    view = memoryview(data)
    offset = 0

    def recv(n: int) -> bytes:
        nonlocal offset
        piece = view[offset : offset + n]
        offset += len(piece)
        return bytes(piece)

    return recv


SAMPLE = wire.ShareSubmission(device=7, seq=41, window=3, value=999)


class TestStreamFraming:
    def test_round_trip(self):
        assert read_frame(buffer_recv(wire.frame(SAMPLE))) == SAMPLE

    def test_clean_eof_returns_none(self):
        assert read_frame(buffer_recv(b"")) is None

    def test_every_truncation_is_typed(self):
        # A peer may die at any byte offset; each prefix must raise a
        # typed error (EOF mid-frame), never return a record or hang.
        framed = wire.frame(SAMPLE)
        for cut in range(1, len(framed)):
            with pytest.raises(TransportError):
                read_frame(buffer_recv(framed[:cut]))

    def test_every_single_bit_flip_is_typed(self):
        # Bit-flip fuzz: the magic check, the pre-allocation length cap,
        # the CRC and the codec's own strictness must jointly catch any
        # one-bit corruption.  A flip that shrinks the length field can
        # legitimately land as TransportError (the reader hits EOF where
        # the CRC said more bytes should be) — but nothing may pass.
        framed = wire.frame(SAMPLE)
        for byte_index in range(len(framed)):
            for bit in range(8):
                mutated = bytearray(framed)
                mutated[byte_index] ^= 1 << bit
                with pytest.raises((WireError, TransportError)):
                    read_frame(buffer_recv(bytes(mutated)))

    def test_oversized_length_refused_before_allocation(self):
        oversized = wire._FRAME_HEADER.pack(
            wire.FRAME_MAGIC, MAX_FRAME_BYTES + 1, 0
        )
        asked: list[int] = []
        inner = buffer_recv(oversized)

        def recv(n: int) -> bytes:
            asked.append(n)
            return inner(n)

        with pytest.raises(WireError, match="transport cap"):
            read_frame(recv)
        # Only the fixed-size header was ever requested — the advertised
        # payload was refused without a read (and without allocation).
        assert all(n <= wire._FRAME_HEADER.size for n in asked)

    def test_garbage_header_rejected(self):
        with pytest.raises(WireError, match="magic"):
            read_frame(buffer_recv(b"\xde\xad\xbe\xef\xde\xad\xbe\xef\xff\xff"))


class TestReplyRecords:
    def test_admission_reply_round_trips(self):
        for result in (
            AdmissionResult(Admission.ACCEPTED, 4),
            AdmissionResult(Admission.RETRY_AFTER, 9, 0.125),
            AdmissionResult(Admission.DUPLICATE, 0),
        ):
            reply = admission_to_reply(result)
            assert wire.unframe(wire.frame(reply)) == reply
            assert admission_from_reply(reply) == result

    def test_unknown_admission_string_is_wire_error(self):
        reply = wire.AdmissionReply(admission="exploded", window=0)
        with pytest.raises(WireError, match="unknown admission"):
            admission_from_reply(reply)

    def test_string_fields_round_trip(self):
        reply = wire.ErrorReply(code="service", message="héllo — ünïcode")
        assert wire.unframe(wire.frame(reply)) == reply

    def test_oversized_string_rejected(self):
        with pytest.raises(WireError, match="string"):
            wire.encode_record(
                wire.ErrorReply(code="service", message="x" * 70_000)
            )

    def test_invalid_utf8_payload_rejected(self):
        framed = bytearray(wire.encode_record(wire.ErrorReply("wire", "abcd")))
        # Corrupt a character inside the message's UTF-8 bytes.
        framed[framed.index(b"abcd")] = 0xFF
        with pytest.raises(WireError):
            wire.decode_record(bytes(framed))


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


ACCEPTED = AdmissionResult(Admission.ACCEPTED, 0)
RETRY = AdmissionResult(Admission.RETRY_AFTER, 0, 0.05)


class TestRetryPolicy:
    def test_immediate_success_needs_no_sleep(self):
        fake = FakeClock()
        policy = RetryPolicy(seed=1)
        out = policy.run(lambda: ACCEPTED, sleep=fake.sleep, clock=fake.clock)
        assert out is ACCEPTED
        assert fake.sleeps == []

    def test_transport_error_retried_until_success(self):
        fake = FakeClock()
        outcomes = [TransportError("boom"), TransportError("boom"), ACCEPTED]

        def send():
            out = outcomes.pop(0)
            if isinstance(out, Exception):
                raise out
            return out

        out = RetryPolicy(seed=1).run(send, sleep=fake.sleep, clock=fake.clock)
        assert out is ACCEPTED
        assert len(fake.sleeps) == 2

    def test_retry_after_hint_is_a_floor(self):
        fake = FakeClock()
        outcomes = [RETRY, ACCEPTED]
        RetryPolicy(seed=1).run(
            lambda: outcomes.pop(0), sleep=fake.sleep, clock=fake.clock
        )
        assert fake.sleeps[0] >= RETRY.retry_after_s

    def test_final_outcomes_returned_immediately(self):
        for admission in (Admission.DUPLICATE, Admission.LATE, Admission.SHED):
            final = AdmissionResult(admission, 0)
            out = RetryPolicy(seed=1).run(lambda: final, sleep=lambda s: None)
            assert out is final

    def test_attempt_budget_exhausts_as_service_error(self):
        fake = FakeClock()
        policy = RetryPolicy(max_attempts=3, seed=1)

        def send():
            raise TransportError("down")

        with pytest.raises(ServiceError, match="retry budget exhausted"):
            policy.run(send, sleep=fake.sleep, clock=fake.clock)
        assert len(fake.sleeps) == 2  # no sleep after the last attempt

    def test_total_deadline_caps_the_budget(self):
        fake = FakeClock()
        policy = RetryPolicy(
            max_attempts=1000, total_deadline_s=0.2, seed=1
        )

        def send():
            fake.now += 0.15  # each attempt burns wall clock
            raise TransportError("down")

        with pytest.raises(ServiceError, match="retry budget exhausted"):
            policy.run(send, sleep=fake.sleep, clock=fake.clock)
        assert fake.now < 1.0  # gave up near the deadline, not at 1000 tries

    def test_backoff_is_bounded_decorrelated_jitter(self):
        fake = FakeClock()
        policy = RetryPolicy(
            max_attempts=30,
            backoff_base_s=0.01,
            max_backoff_s=0.05,
            total_deadline_s=1000.0,
            seed=7,
        )

        def send():
            raise TransportError("down")

        with pytest.raises(ServiceError):
            policy.run(send, sleep=fake.sleep, clock=fake.clock)
        assert all(0.01 <= s <= 0.05 for s in fake.sleeps)

    def test_seeded_sleeps_are_pinned(self):
        fake = FakeClock()
        policy = RetryPolicy(
            max_attempts=6,
            backoff_base_s=0.01,
            max_backoff_s=0.05,
            total_deadline_s=1000.0,
            seed=7,
        )

        def send():
            raise TransportError("down")

        with pytest.raises(ServiceError):
            policy.run(send, sleep=fake.sleep, clock=fake.clock)
        assert fake.sleeps == [
            0.016476655296663246,
            0.015947977782376242,
            0.03566632406857988,
            0.01702624535715197,
            0.05,
        ]

    def test_first_try_success_seeds_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("jitter generator seeded without a retry")

        monkeypatch.setattr("repro.service.transport.random.Random", refuse)
        fake = FakeClock()
        out = RetryPolicy(seed=1).run(
            lambda: ACCEPTED, sleep=fake.sleep, clock=fake.clock
        )
        assert out is ACCEPTED

    def test_service_error_is_never_retried(self):
        calls = []

        def send():
            calls.append(1)
            raise ServiceError("contract broken")

        with pytest.raises(ServiceError, match="contract broken"):
            RetryPolicy(seed=1).run(send, sleep=lambda s: None)
        assert len(calls) == 1

    def test_policy_validates_bounds(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(total_deadline_s=0)


@pytest.fixture()
def server_factory():
    """Start SocketRecordServers, guaranteed stopped at test end."""
    servers: list[SocketRecordServer] = []
    threads: list[threading.Thread] = []

    def start(handler) -> SocketRecordServer:
        server = SocketRecordServer(handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
        return server

    yield start
    for server in servers:
        server.stop()
    for thread in threads:
        thread.join(timeout=5.0)


def ping_handler(record):
    assert isinstance(record, wire.ServiceRequest)
    return [wire.ServiceReply(op=record.op, ok=True, value=record.value + 1)]


class TestSocketRoundTrip:
    def test_request_reply(self, server_factory):
        server = server_factory(ping_handler)
        endpoint = ShardEndpoint(lambda: (server.host, server.port))
        reply = endpoint.request(wire.ServiceRequest(op=OP_PING, value=41))
        assert reply == wire.ServiceReply(op=OP_PING, ok=True, value=42)
        endpoint.close()

    def test_malformed_frame_gets_wire_error_reply(self, server_factory):
        server = server_factory(ping_handler)
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as sock:
            sock.sendall(b"\x00" * wire._FRAME_HEADER.size)
            reply = read_frame(sock.recv)
            assert isinstance(reply, wire.ErrorReply)
            assert reply.code == "wire"
            # The server closed its side: the stream position after
            # garbage is unknowable.  (RST instead of FIN is fine —
            # either way the connection is gone.)
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass

    def test_handler_exception_becomes_error_reply(self, server_factory):
        def handler(record):
            raise ServiceError("window 9 is closed")

        server = server_factory(handler)
        endpoint = ShardEndpoint(lambda: (server.host, server.port))
        with pytest.raises(ServiceError, match="window 9 is closed"):
            endpoint.request(wire.ServiceRequest(op=OP_PING))
        endpoint.close()

    def test_drop_connection_surfaces_as_transport_error(self, server_factory):
        dropped = []

        def handler(record):
            if not dropped:
                dropped.append(record)
                return DROP_CONNECTION
            return ping_handler(record)

        server = server_factory(handler)
        endpoint = ShardEndpoint(lambda: (server.host, server.port))
        with pytest.raises(TransportError):
            endpoint.request(wire.ServiceRequest(op=OP_PING, value=1))
        # The endpoint re-dials; a retried request lands.
        reply = endpoint.request(wire.ServiceRequest(op=OP_PING, value=1))
        assert reply.value == 2
        endpoint.close()

    def test_request_deadline_is_enforced(self, server_factory):
        import time as _time

        def handler(record):
            _time.sleep(0.5)
            return ping_handler(record)

        server = server_factory(handler)
        endpoint = ShardEndpoint(
            lambda: (server.host, server.port), request_deadline_s=0.05
        )
        with pytest.raises(TransportError, match="deadline"):
            endpoint.request(wire.ServiceRequest(op=OP_PING))
        endpoint.close()

    def test_trailing_frames_stream_after_reply(self, server_factory):
        extras = [
            wire.ShareSubmission(device=d, seq=1, window=0, value=d)
            for d in range(3)
        ]

        def handler(record):
            return [
                wire.ServiceReply(op=record.op, ok=True, value=len(extras)),
                *extras,
            ]

        server = server_factory(handler)
        endpoint = ShardEndpoint(lambda: (server.host, server.port))
        reply, got = endpoint.request(
            wire.ServiceRequest(op=OP_PING), trailing=OP_PING
        )
        assert reply.value == 3
        assert got == extras
        endpoint.close()

    def test_send_record_to_dead_peer_is_transport_error(self, server_factory):
        server = server_factory(ping_handler)
        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        sock.close()
        with pytest.raises(TransportError):
            send_record(sock, wire.ServiceRequest(op=OP_PING))
