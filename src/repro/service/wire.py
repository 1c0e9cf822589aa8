"""The service wire format: flat-scalar records, CRC-framed.

The sharded campaign layer earned its flat IPC with
:class:`~repro.core.metrics.RoundSummary` — every round reduces to a
fixed handful of scalars, however many nodes stand behind it.  The
service wire format generalises exactly that discipline into a byte
encoding: a record is a **flat-scalar dataclass** (every field an
``int``, ``float``, ``bool`` or ``None``), encoded field by field with
one type tag each, so any record kind serialises to a small, schema-free
frame a replaying daemon can decode without pickle (and without trusting
the writer's class definitions).

Record kinds carried on the wire / in the window journal:

* :class:`ShareSubmission` — one device's share submission for one
  billing window (``SUBMIT`` frames).
* :class:`~repro.core.metrics.WindowSummary` — one closed window
  (``WINDOW_CLOSE`` frames).

Record kinds carried on the *socket* transport only (never journaled):

* :class:`AdmissionReply` — the daemon's answer to a ``SUBMIT`` frame,
  the :class:`~repro.service.daemon.AdmissionResult` contract as bytes.
* :class:`ServiceRequest` / :class:`ServiceReply` — the control plane
  (ping, close-window, pause/resume, stats, fault injection, shutdown).
* :class:`ErrorReply` — a structured failure the peer can re-raise.

Framing: ``encode_record`` produces ``kind + field-count + fields``;
:func:`frame` wraps that in ``magic + length + crc32`` for transport
(the window journal instead rides :class:`repro.diskcache.AppendLog`,
whose frames carry the same CRC discipline).
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro.core.metrics import WindowSummary
from repro.errors import WireError

__all__ = [
    "SUBMIT",
    "WINDOW_CLOSE",
    "DEVICE_TOTAL",
    "STORE_CHECKPOINT",
    "ADMISSION_REPLY",
    "SERVICE_REQUEST",
    "SERVICE_REPLY",
    "ERROR_REPLY",
    "AdmissionReply",
    "DeviceTotal",
    "ErrorReply",
    "ServiceReply",
    "ServiceRequest",
    "ShareSubmission",
    "StoreCheckpoint",
    "encode_record",
    "decode_record",
    "frame",
    "unframe",
]

#: Record kind tags (one byte on the wire).
SUBMIT = 1
WINDOW_CLOSE = 2
DEVICE_TOTAL = 3
STORE_CHECKPOINT = 4
#: Socket-transport-only kinds (a journal replay treats them as foreign).
ADMISSION_REPLY = 5
SERVICE_REQUEST = 6
SERVICE_REPLY = 7
ERROR_REPLY = 8

#: Transport frame magic (the journal uses AppendLog's own framing).
FRAME_MAGIC = b"RW"

_FRAME_HEADER = struct.Struct(">2sII")
_DOUBLE = struct.Struct(">d")
_INT64 = struct.Struct(">q")

#: Ints outside the 64-bit range use a length-prefixed big-int tag, so
#: full field elements (and anything bigger) still round-trip exactly.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True, slots=True)
class ShareSubmission:
    """One device's share submission for one billing window.

    ``seq`` is the device's own submission counter; ``(device, seq)``
    is the deduplication identity, so a client that re-sends after a
    lost acknowledgment can never double-count a reading.  ``value`` is
    the submitted share/reading (a field element — arbitrary size ints
    round-trip).  ``window`` is the billing window the daemon resolved
    the submission into at admission time; journaling the *resolved*
    window is what makes replay independent of wall clocks.
    """

    device: int
    seq: int
    window: int
    value: int

    def __post_init__(self) -> None:
        for name in ("device", "seq", "window"):
            field_value = getattr(self, name)
            if not isinstance(field_value, int) or isinstance(field_value, bool):
                raise WireError(f"ShareSubmission.{name} must be an integer")
            if field_value < 0:
                raise WireError(f"ShareSubmission.{name} must be >= 0")
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise WireError("ShareSubmission.value must be an integer")


@dataclass(frozen=True, slots=True)
class DeviceTotal:
    """One device's compacted billing total (result-store records only).

    The result store's compaction folds the per-window contributions of
    retired windows into one of these per device: ``total`` is the exact
    integer sum of the device's accepted readings over ``windows``
    closed windows up to and including ``through_window``.  Folding is
    associative, so repeated compactions merge totals without ever
    changing a device's billed sum — the bit-for-bit retention contract.
    """

    device: int
    through_window: int
    windows: int
    total: int

    def __post_init__(self) -> None:
        for name in ("device", "through_window", "windows"):
            field_value = getattr(self, name)
            if not isinstance(field_value, int) or isinstance(field_value, bool):
                raise WireError(f"DeviceTotal.{name} must be an integer")
            if field_value < 0:
                raise WireError(f"DeviceTotal.{name} must be >= 0")
        if not isinstance(self.total, int) or isinstance(self.total, bool):
            raise WireError("DeviceTotal.total must be an integer")


@dataclass(frozen=True, slots=True)
class StoreCheckpoint:
    """The result store's compaction horizon (result-store records only).

    Every window ``<= through_window`` has been folded into
    :class:`DeviceTotal` records (or was empty and retired).  The store
    refuses to re-ingest or re-publish windows at or below its horizon,
    which is what makes journal ingest idempotent *across* compactions —
    without it, a reopen would pull a retired window back out of the
    daemon's journals and double-bill it.
    """

    through_window: int

    def __post_init__(self) -> None:
        if not isinstance(self.through_window, int) or isinstance(
            self.through_window, bool
        ):
            raise WireError("StoreCheckpoint.through_window must be an integer")
        if self.through_window < 0:
            raise WireError("StoreCheckpoint.through_window must be >= 0")


@dataclass(frozen=True, slots=True)
class AdmissionReply:
    """One ``submit`` outcome as a transport frame.

    ``admission`` carries the :class:`~repro.service.daemon.Admission`
    *value string* (``"accepted"``, ``"duplicate"``, ...) so the reply
    round-trips without this module importing the daemon's enum; the
    transport converts to/from :class:`AdmissionResult` at the edges
    and rejects unknown strings there.
    """

    admission: str
    window: int
    retry_after_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.admission, str) or not self.admission:
            raise WireError("AdmissionReply.admission must be a non-empty str")
        if not isinstance(self.window, int) or isinstance(self.window, bool):
            raise WireError("AdmissionReply.window must be an integer")
        if self.retry_after_s is not None and not isinstance(
            self.retry_after_s, float
        ):
            raise WireError("AdmissionReply.retry_after_s must be float or None")


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    """One control-plane request to a shard server (``op`` from
    :mod:`repro.service.transport`; ``window``/``value`` are op-specific
    operands, 0 when unused)."""

    op: int
    window: int = 0
    value: int = 0

    def __post_init__(self) -> None:
        for name in ("op", "window", "value"):
            field_value = getattr(self, name)
            if not isinstance(field_value, int) or isinstance(field_value, bool):
                raise WireError(f"ServiceRequest.{name} must be an integer")
        if self.op < 1:
            raise WireError("ServiceRequest.op must be >= 1")


@dataclass(frozen=True, slots=True)
class ServiceReply:
    """A shard server's answer to a :class:`ServiceRequest`.

    ``value`` is op-specific (a stat counter, a submission count for a
    close — the close's submission frames follow this reply on the same
    connection).
    """

    op: int
    ok: bool
    value: int = 0

    def __post_init__(self) -> None:
        for name in ("op", "value"):
            field_value = getattr(self, name)
            if not isinstance(field_value, int) or isinstance(field_value, bool):
                raise WireError(f"ServiceReply.{name} must be an integer")
        if not isinstance(self.ok, bool):
            raise WireError("ServiceReply.ok must be a bool")


@dataclass(frozen=True, slots=True)
class ErrorReply:
    """A structured failure frame (``code`` names the exception class to
    re-raise on the client: ``"service"`` → :class:`ServiceError`,
    ``"wire"`` → :class:`WireError`)."""

    code: str
    message: str

    def __post_init__(self) -> None:
        for name in ("code", "message"):
            if not isinstance(getattr(self, name), str):
                raise WireError(f"ErrorReply.{name} must be a str")
        if not self.code:
            raise WireError("ErrorReply.code must be non-empty")


#: kind tag -> record dataclass; the decode side of the registry.
RECORD_TYPES: dict[int, type] = {
    SUBMIT: ShareSubmission,
    WINDOW_CLOSE: WindowSummary,
    DEVICE_TOTAL: DeviceTotal,
    STORE_CHECKPOINT: StoreCheckpoint,
    ADMISSION_REPLY: AdmissionReply,
    SERVICE_REQUEST: ServiceRequest,
    SERVICE_REPLY: ServiceReply,
    ERROR_REPLY: ErrorReply,
}


def _encode_scalar(value: Any) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return b"i" + _INT64.pack(value)
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        if len(raw) > 0xFFFF:
            raise WireError("integer field too large to frame")
        return b"I" + len(raw).to_bytes(2, "big") + raw
    if isinstance(value, float):
        return b"f" + _DOUBLE.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise WireError("string field too large to frame")
        return b"s" + len(raw).to_bytes(2, "big") + raw
    raise WireError(
        f"wire records carry flat scalars only, got {type(value).__name__}"
    )


def _decode_scalar(data: bytes, offset: int) -> tuple[Any, int]:
    try:
        tag = data[offset : offset + 1]
        if tag == b"N":
            return None, offset + 1
        if tag == b"T":
            return True, offset + 1
        if tag == b"F":
            return False, offset + 1
        if tag == b"i":
            (value,) = _INT64.unpack_from(data, offset + 1)
            return value, offset + 1 + _INT64.size
        if tag == b"I":
            length = int.from_bytes(data[offset + 1 : offset + 3], "big")
            end = offset + 3 + length
            raw = data[offset + 3 : end]
            if len(raw) < length:
                raise WireError("truncated big-int field")
            return int.from_bytes(raw, "big", signed=True), end
        if tag == b"f":
            (value,) = _DOUBLE.unpack_from(data, offset + 1)
            return value, offset + 1 + _DOUBLE.size
        if tag == b"s":
            length = int.from_bytes(data[offset + 1 : offset + 3], "big")
            end = offset + 3 + length
            raw = data[offset + 3 : end]
            if len(raw) < length:
                raise WireError("truncated string field")
            try:
                return raw.decode("utf-8"), end
            except UnicodeDecodeError:
                raise WireError("string field is not valid UTF-8") from None
    except struct.error:
        raise WireError("truncated scalar field") from None
    raise WireError(f"unknown scalar tag {tag!r}")


def _encoder_for(cls: type) -> tuple[bytes, tuple[str, ...]]:
    """``(kind + field-count header, field names)`` for a record class."""
    for kind, registered in RECORD_TYPES.items():
        if issubclass(cls, registered):
            break
    else:
        raise WireError(f"{cls.__name__} is not a registered wire record")
    names = tuple(spec_field.name for spec_field in dataclasses.fields(cls))
    if len(names) > 0xFF:  # pragma: no cover - records are small
        raise WireError("too many fields for a wire record")
    return bytes([kind, len(names)]), names


#: The codec tables, built once from RECORD_TYPES: record class ->
#: (header bytes, field names) for encoding, kind -> (class, field
#: count) for decoding.
_ENCODERS: dict[type, tuple[bytes, tuple[str, ...]]] = {
    cls: _encoder_for(cls) for cls in RECORD_TYPES.values()
}
_DECODERS: dict[int, tuple[type, int]] = {
    kind: (cls, len(_ENCODERS[cls][1])) for kind, cls in RECORD_TYPES.items()
}

_TAG_INT64 = ord("i")
_INT64_FIELD = 1 + _INT64.size


def encode_record(record: Any) -> bytes:
    """Encode a registered flat-scalar record to its wire payload."""
    cls = type(record)
    entry = _ENCODERS.get(cls)
    # A subclass of a registered record encodes under its base's kind.
    header, names = entry if entry is not None else _encoder_for(cls)
    parts = [header]
    for name in names:
        value = getattr(record, name)
        if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
            parts.append(b"i" + _INT64.pack(value))
        else:
            parts.append(_encode_scalar(value))
    return b"".join(parts)


def decode_record(payload: bytes) -> Any:
    """Decode one wire payload back into its record dataclass."""
    if len(payload) < 2:
        raise WireError("wire payload shorter than its header")
    kind, count = payload[0], payload[1]
    entry = _DECODERS.get(kind)
    if entry is None:
        raise WireError(f"unknown wire record kind {kind}")
    cls, expected = entry
    if count != expected:
        raise WireError(
            f"{cls.__name__} frame carries {count} fields, "
            f"expected {expected}"
        )
    values = []
    offset = 2
    size = len(payload)
    for _ in range(count):
        if offset + _INT64_FIELD <= size and payload[offset] == _TAG_INT64:
            values.append(_INT64.unpack_from(payload, offset + 1)[0])
            offset += _INT64_FIELD
        else:
            value, offset = _decode_scalar(payload, offset)
            values.append(value)
    if offset != size:
        raise WireError(f"{size - offset} trailing bytes after record")
    return cls(*values)


def frame(record: Any) -> bytes:
    """Transport framing: ``magic + length + crc32 + payload``."""
    payload = encode_record(record)
    return _FRAME_HEADER.pack(
        FRAME_MAGIC, len(payload), zlib.crc32(payload)
    ) + payload


def unframe(data: bytes) -> Any:
    """Decode one transport frame (strict: exact length, valid CRC)."""
    if len(data) < _FRAME_HEADER.size:
        raise WireError("frame shorter than its header")
    magic, length, crc = _FRAME_HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    payload = data[_FRAME_HEADER.size :]
    if len(payload) != length:
        raise WireError(
            f"frame length mismatch: header says {length}, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise WireError("frame CRC mismatch")
    return decode_record(payload)
