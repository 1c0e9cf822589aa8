"""Wire-format tests: flat-scalar records, strict framing, exact round-trips."""

from __future__ import annotations

import pytest

from repro.core.metrics import WindowSummary
from repro.errors import WireError
from repro.field.prime_field import PrimeField
from repro.service import wire
from repro.service.wire import DeviceTotal, ShareSubmission, StoreCheckpoint


def summary(**overrides) -> WindowSummary:
    base = dict(
        window=3,
        accepted=12,
        devices=12,
        duplicates=1,
        late=0,
        shed=2,
        retried=4,
        total=123456,
        expected=123456,
        degraded=False,
        close_latency_us=842,
        recovered=True,
    )
    base.update(overrides)
    return WindowSummary(**base)


class TestRecordRoundTrip:
    def test_submission_round_trips(self):
        record = ShareSubmission(device=7, seq=41, window=3, value=999)
        assert wire.decode_record(wire.encode_record(record)) == record

    def test_window_summary_round_trips(self):
        record = summary()
        assert wire.decode_record(wire.encode_record(record)) == record

    def test_none_total_round_trips(self):
        record = summary(total=None, expected=0)
        decoded = wire.decode_record(wire.encode_record(record))
        assert decoded.total is None
        assert decoded == record

    def test_field_element_values_round_trip(self):
        # Values above 2^63 ride the big-int tag, not the int64 fast path.
        prime = PrimeField().prime
        for value in (prime - 1, 2**64, -(2**80), 0, -1):
            record = ShareSubmission(device=0, seq=0, window=0, value=value)
            assert wire.decode_record(wire.encode_record(record)).value == value

    def test_transport_frame_round_trips(self):
        record = ShareSubmission(device=1, seq=2, window=3, value=4)
        assert wire.unframe(wire.frame(record)) == record


#: Literal bytes of the wire format: a change that still round-trips
#: would otherwise slip past the round-trip tests and strand old journals.
GOLDEN_PAYLOADS = [
    (
        ShareSubmission(7, 3, 3, 2**61 - 2),
        "0104690000000000000007690000000000000003"
        "690000000000000003691ffffffffffffffe",
    ),
    (
        wire.AdmissionReply("retry_after", 4, 0.05),
        "050373000b72657472795f6166746572690000000000000004663fa999999999999a",
    ),
    (
        wire.AdmissionReply("accepted", 4),
        "050373000861636365707465646900000000000000044e",
    ),
    (
        DeviceTotal(1, 2, 3, -(2**70)),
        "0304690000000000000001690000000000000002690000000000000003"
        "49000affc00000000000000000",
    ),
]


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "record,hexed", GOLDEN_PAYLOADS, ids=lambda v: type(v).__name__
    )
    def test_payload_bytes_are_pinned(self, record, hexed):
        assert wire.encode_record(record).hex() == hexed
        assert wire.decode_record(bytes.fromhex(hexed)) == record

    def test_frame_bytes_are_pinned(self):
        record = ShareSubmission(7, 3, 3, 317)
        hexed = (
            "525700000026e4b176c1"
            "0104690000000000000007690000000000000003"
            "69000000000000000369000000000000013d"
        )
        assert wire.frame(record).hex() == hexed
        assert wire.unframe(bytes.fromhex(hexed)) == record


class TestStrictness:
    def test_submission_validates_fields(self):
        with pytest.raises(WireError):
            ShareSubmission(device=-1, seq=0, window=0, value=1)
        with pytest.raises(WireError):
            ShareSubmission(device=0, seq=0, window=0, value=1.5)
        with pytest.raises(WireError):
            ShareSubmission(device=True, seq=0, window=0, value=1)

    def test_unknown_kind_rejected(self):
        payload = wire.encode_record(ShareSubmission(0, 0, 0, 0))
        with pytest.raises(WireError, match="unknown wire record kind"):
            wire.decode_record(bytes([99]) + payload[1:])

    def test_field_count_mismatch_rejected(self):
        payload = bytearray(wire.encode_record(ShareSubmission(0, 0, 0, 0)))
        payload[1] = 3
        with pytest.raises(WireError, match="fields"):
            wire.decode_record(bytes(payload))

    def test_trailing_bytes_rejected(self):
        payload = wire.encode_record(ShareSubmission(0, 0, 0, 0))
        with pytest.raises(WireError, match="trailing"):
            wire.decode_record(payload + b"x")

    def test_truncated_payload_rejected(self):
        payload = wire.encode_record(ShareSubmission(0, 0, 0, 0))
        with pytest.raises(WireError):
            wire.decode_record(payload[:-3])

    def test_frame_crc_mismatch_rejected(self):
        framed = bytearray(wire.frame(ShareSubmission(0, 0, 0, 0)))
        framed[-1] ^= 0x01
        with pytest.raises(WireError, match="CRC"):
            wire.unframe(bytes(framed))

    def test_frame_bad_magic_rejected(self):
        framed = bytearray(wire.frame(ShareSubmission(0, 0, 0, 0)))
        framed[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            wire.unframe(bytes(framed))

    def test_non_scalar_field_rejected(self):
        with pytest.raises(WireError, match="flat scalars"):
            wire._encode_scalar([1, 2, 3])


class TestStoreRecordCorruption:
    """Result-store kinds get the same round-trip + corruption coverage
    as the submission path (DEVICE_TOTAL / STORE_CHECKPOINT)."""

    def test_device_total_round_trips(self):
        record = DeviceTotal(device=9, through_window=41, windows=7, total=123456789)
        assert wire.decode_record(wire.encode_record(record)) == record

    def test_device_total_bigint_total_round_trips(self):
        prime = PrimeField().prime
        record = DeviceTotal(device=0, through_window=0, windows=1, total=prime - 1)
        assert wire.decode_record(wire.encode_record(record)).total == prime - 1

    def test_device_total_truncation_rejected(self):
        payload = wire.encode_record(
            DeviceTotal(device=9, through_window=41, windows=7, total=55)
        )
        for cut in range(1, len(payload)):
            with pytest.raises(WireError):
                wire.decode_record(payload[:cut])

    def test_store_checkpoint_round_trips(self):
        record = StoreCheckpoint(through_window=77)
        assert wire.decode_record(wire.encode_record(record)) == record

    def test_store_checkpoint_frame_bitflip_rejected(self):
        framed = bytearray(wire.frame(StoreCheckpoint(through_window=77)))
        for i in range(len(framed)):
            corrupted = bytearray(framed)
            corrupted[i] ^= 0x40
            try:
                decoded = wire.unframe(bytes(corrupted))
            except WireError:
                continue
            # A flip the CRC cannot see must still decode to *something*
            # (never silently to a different record type's fields).
            assert isinstance(decoded, StoreCheckpoint)
