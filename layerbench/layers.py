"""Which public functions are wrapped, and how spans become per-layer metrics.

Every wrapper sits at the name its caller looks up: a function imported
into ``repro.core.protocol`` is wrapped there, a method on its class.
Layer names follow the repo's module paths; they are fixed here because
later performance changes are judged by them.
"""

from __future__ import annotations

from tracing import LayerStats, Point, Tracer


def _packets(args: tuple) -> dict:
    return {"packets": len(args[0])}


def protocol_points() -> list[Point]:
    """The S4 round's layers: flooding, packet crypto, dealing, field math."""
    from repro.core import protocol
    from repro.crypto.prng import AesCtrDrbg
    from repro.ct.minicast import MiniCastRound
    from repro.field.polynomial import Polynomial

    return [
        Point(protocol.AggregationEngine, "run", "core.protocol.run"),
        Point(MiniCastRound, "run", "ct.minicast.run"),
        Point(protocol, "batch_encrypt_shares", "core.payload.encrypt", _packets),
        Point(protocol, "batch_decrypt_values", "core.payload.decrypt", _packets),
        Point(AesCtrDrbg, "fork_many", "crypto.prng.fork"),
        Point(AesCtrDrbg, "prefill_many", "crypto.prng.prefill"),
        Point(Polynomial, "random_with_secret", "field.polynomial.random"),
        Point(Polynomial, "evaluate_values", "field.polynomial.evaluate"),
        Point(protocol, "reconstruct_aggregate", "sss.aggregation.reconstruct"),
        Point(protocol, "decode_sum_packet", "core.payload.decode_sum"),
    ]


def _fold_name(tracer: Tracer, args: tuple) -> str:
    if tracer.current_unit() == "restart":
        return "service.windows.reverify"
    return "service.windows.fold"


def _fold_info(args: tuple) -> dict:
    from repro.analysis.sharding import degree_for_cell

    sizes = [len(subs) for subs in args[0].values() if subs]
    return {
        "members_per_shard": sum(sizes) / len(sizes) if sizes else 0,
        "shares_dealt": sum(n * (degree_for_cell(n) + 1) for n in sizes),
    }


def _request_name(tracer: Tracer, args: tuple) -> str:
    from repro.service import transport, wire

    record = args[1]
    if isinstance(record, wire.ShareSubmission):
        return "service.transport.request"
    if getattr(record, "op", None) == transport.OP_CLOSE_WINDOW:
        return "service.supervisor.close_collect"
    return "service.transport.control"


def service_points() -> list[Point]:
    """Admission, wire, transport, supervision, WAL, fold, store, recovery."""
    from repro import diskcache
    from repro.service import client, daemon, supervisor, transport, wal, windows, wire
    from repro.service.store import ResultStore
    from repro.sss.scheme import ShamirScheme

    return [
        Point(client.ServiceClient, "__init__", "service.client.start"),
        Point(client.ServiceClient, "submit", "service.client.submit"),
        Point(client.ServiceClient, "close_window", "service.client.close_window"),
        Point(client.ServiceClient, "query", "service.client.query"),
        Point(daemon.ShardedServiceDaemon, "__init__", "service.daemon.start"),
        Point(daemon.ShardedServiceDaemon, "submit", "service.daemon.submit"),
        Point(daemon.ShardedServiceDaemon, "close_window", "service.daemon.close_window"),
        Point(supervisor.ShardSupervisor, "submit", "service.supervisor.submit"),
        Point(supervisor.ShardSupervisor, "close_window", "service.supervisor.close_window"),
        Point(transport.ShardEndpoint, "request", _request_name),
        Point(transport.RetryPolicy, "run", "service.transport.retry"),
        Point(wire, "encode_record", "service.wire.encode"),
        Point(wire, "decode_record", "service.wire.decode"),
        Point(wal.WindowJournal, "append_submission", "service.wal.append"),
        Point(wal.WindowJournal, "append_close", "service.wal.append_close"),
        Point(wal.WindowJournal, "replay", "service.wal.replay"),
        Point(daemon, "aggregate_shards", _fold_name, _fold_info),
        Point(supervisor, "aggregate_shards", _fold_name, _fold_info),
        Point(ShamirScheme, "split_many", "sss.scheme.split"),
        Point(windows, "reconstruct_many_from_sums", "sss.aggregation.sums_reconstruct"),
        Point(windows, "cross_cell_aggregate", "analysis.sharding.cross_cell"),
        Point(ResultStore, "__init__", "service.store.open"),
        Point(ResultStore, "publish", "service.store.publish"),
        Point(ResultStore, "ingest", "service.store.ingest"),
        Point(ResultStore, "billing_extract", "service.store.billing_extract"),
        Point(diskcache.AppendLog, "append", "diskcache.append"),
    ]


def _ms(ns: float) -> float:
    return ns / 1e6


def _us(ns: float) -> float:
    return ns / 1e3


def _retries(stats: LayerStats) -> float:
    attempts = stats.per_unit("admission", "service.supervisor.submit", field=0)
    return max(0.0, attempts - 1) if attempts else 0.0


def _per_close(stats: LayerStats, count: int) -> float:
    closes = stats.count("close")
    return count / closes if closes else 0.0


#: Per-layer metric -> value from the traced run's spans and the
#: workload's own measurements (``extras``).  Times are inclusive span
#: time per unit of work unless the name says ``self``; layers a
#: workload never calls read 0 (see ``REQUIRED``).
PER_LAYER = {
    "ct.minicast.busy_ms": lambda s, x: _ms(s.per_unit("round", "ct.minicast.run")),
    "ct.minicast.slots": lambda s, x: x.get("slots_per_round", 0.0),
    "core.payload.encrypt_ms": lambda s, x: _ms(s.per_unit("round", "core.payload.encrypt")),
    "core.payload.decrypt_ms": lambda s, x: _ms(s.per_unit("round", "core.payload.decrypt")),
    "core.payload.packets": lambda s, x: (
        s.info_per_unit("round", "core.payload.encrypt", "packets")
        + s.info_per_unit("round", "core.payload.decrypt", "packets")),
    "crypto.prng.fork_ms": lambda s, x: _ms(s.per_unit("round", "crypto.prng.fork")),
    "crypto.prng.prefill_ms": lambda s, x: _ms(s.per_unit("round", "crypto.prng.prefill")),
    "field.polynomial.deal_ms": lambda s, x: _ms(s.per_unit(
        "round", "field.polynomial.random", "field.polynomial.evaluate")),
    "field.polynomial.dealers": lambda s, x: s.per_unit(
        "round", "field.polynomial.random", field=0),
    "sss.aggregation.reconstruct_ms": lambda s, x: _ms(
        s.per_unit("round", "sss.aggregation.reconstruct")),
    "core.payload.decode_sum_ms": lambda s, x: _ms(
        s.per_unit("round", "core.payload.decode_sum")),
    "core.protocol.self_ms": lambda s, x: _ms(
        s.per_unit("round", "core.protocol.run", field=2)),
    "service.transport.request_us": lambda s, x: _us(
        s.per_unit("admission", "service.transport.request")),
    "service.transport.retries": lambda s, x: _retries(s),
    "service.supervisor.submit_self_us": lambda s, x: _us(
        s.per_unit("admission", "service.supervisor.submit", field=2)),
    "service.wire.encode_us": lambda s, x: _us(s.per_unit("admission", "service.wire.encode")),
    "service.wire.decode_us": lambda s, x: _us(s.per_unit("admission", "service.wire.decode")),
    "service.wire.records_per_ack": lambda s, x: s.per_unit(
        "admission", "service.wire.encode", "service.wire.decode", field=0),
    "service.supervisor.close_collect_ms": lambda s, x: _ms(
        s.per_unit("close", "service.supervisor.close_collect")),
    "service.supervisor.detect_ms": lambda s, x: x.get("detect_ms", 0.0),
    "service.supervisor.respawn_s": lambda s, x: x.get("respawn_s", 0.0),
    "service.windows.fold_ms": lambda s, x: _ms(s.per_unit("close", "service.windows.fold")),
    "sss.scheme.split_ms": lambda s, x: _ms(s.per_unit("close", "sss.scheme.split")),
    "sss.aggregation.sums_reconstruct_ms": lambda s, x: _ms(
        s.per_unit("close", "sss.aggregation.sums_reconstruct")),
    "analysis.sharding.cross_cell_ms": lambda s, x: _ms(
        s.per_unit("close", "analysis.sharding.cross_cell")),
    "service.windows.members_per_shard": lambda s, x: s.info_per_unit(
        "close", "service.windows.fold", "members_per_shard"),
    "service.windows.shares_dealt": lambda s, x: s.info_per_unit(
        "close", "service.windows.fold", "shares_dealt"),
    "service.daemon.lock_hold_ms": lambda s, x: _ms(
        s.per_unit("close", "service.daemon.close_window")),
    "service.daemon.submit_us": lambda s, x: _us(s.per_unit("admission", "service.daemon.submit")),
    "service.wal.append_us": lambda s, x: _us(s.per_unit("admission", "service.wal.append")),
    "diskcache.fsyncs_per_ack": lambda s, x: s.per_unit("admission", "diskcache.append", field=0),
    "service.wal.close_append_ms": lambda s, x: _ms(
        s.per_unit("close", "service.wal.append_close")),
    "service.store.publish_ms": lambda s, x: _ms(s.per_unit("close", "service.store.publish")),
    "service.store.fsyncs_per_close": lambda s, x: _per_close(
        s, s.calls_under("close", "diskcache.append", "service.store.publish")),
    "service.store.query_ms": lambda s, x: _ms(
        s.per_unit("read", "service.store.billing_extract")),
    "service.wal.replay_ms": lambda s, x: _ms(s.per_unit("restart", "service.wal.replay")),
    "service.windows.reverify_ms": lambda s, x: _ms(
        s.per_unit("restart", "service.windows.reverify")),
    "service.store.replay_ms": lambda s, x: _ms(s.per_unit("restart", "service.store.open")),
    "service.store.ingest_ms": lambda s, x: _ms(s.per_unit("restart", "service.store.ingest")),
    "trace.overhead_pct": lambda s, x: x.get("overhead_pct", 0.0),
}

_FOLD = ("service.windows.fold_ms", "sss.scheme.split_ms",
         "sss.aggregation.sums_reconstruct_ms", "analysis.sharding.cross_cell_ms",
         "service.windows.members_per_shard", "service.windows.shares_dealt",
         "service.wal.close_append_ms", "service.store.publish_ms",
         "service.store.fsyncs_per_close", "service.store.query_ms",
         "service.wire.encode_us", "service.wire.records_per_ack")

#: Per-layer metrics each workload must report above 0.  A wrapper that
#: stops catching calls (the function was inlined, renamed or moved into
#: another process) reads 0, which would look like a perfect speed-up;
#: a traced run fails its correctness gate instead.
REQUIRED = {
    "rounds_real": (
        "ct.minicast.busy_ms", "ct.minicast.slots", "core.payload.encrypt_ms",
        "core.payload.decrypt_ms", "core.payload.packets", "crypto.prng.fork_ms",
        "crypto.prng.prefill_ms", "field.polynomial.deal_ms", "field.polynomial.dealers",
        "sss.aggregation.reconstruct_ms", "core.payload.decode_sum_ms",
        "core.protocol.self_ms"),
    "metering_ingest": _FOLD + (
        "service.transport.request_us", "service.supervisor.submit_self_us",
        "service.wire.decode_us", "service.supervisor.close_collect_ms",
        "service.supervisor.detect_ms", "service.supervisor.respawn_s"),
    "metering_fold": _FOLD + (
        "service.daemon.lock_hold_ms", "service.daemon.submit_us", "service.wal.append_us",
        "diskcache.fsyncs_per_ack", "service.wal.replay_ms", "service.windows.reverify_ms",
        "service.store.replay_ms", "service.store.ingest_ms"),
}

#: A traced round, admission, close, kill or restart whose layer self
#: times cover less than this share of its wall time has lost a wrapper;
#: the traced run fails.  (A read is a few tens of microseconds, of which
#: the wrappers' own cost is a tenth; it is not gated.)
MIN_COVERAGE = 0.90
COVERED_UNITS = ("round", "admission", "close", "kill", "restart")
