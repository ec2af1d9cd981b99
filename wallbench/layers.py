"""Per-layer metrics of a traced pass, from the tracers' phase windows.

Windows: ``T`` is the timed phase (per-update metrics), ``J`` the join
phase (per-join metrics: the probe joins after a burst, the timed phase
of ``join_under_writes``).  ``U`` is the accepted updates of the timed
phase.  A ratio whose base the workload does not produce (joins in a
burst's timed phase, chunks in ``fanout_burst``) reads 0.
"""

from __future__ import annotations

import statistics
from tracing import window
from workloads import SETUPS, Ctx

#: name -> (end-to-end metric it should move, workload) — the prediction
#: written down before measuring; see README.md.
SHOULD_MOVE: dict[str, str] = {
    "wire.encodes_per_update": "server_cpu_us_per_update . fanout_burst",
    "wire.encode_us_per_update": "server_cpu_us_per_update . fanout_burst",
    "wire.decode_us_per_update": "server_cpu_us_per_update . fanout_burst",
    "wire.frame_reuses_per_encode": "updates_per_s . fanout_burst",
    "wire.snapshot_encode_ms_per_join": "join_full_p50_ms, join_chunked_p50_ms . join_under_writes",
    "wire.client_decode_us_per_delivery": "update_rtt_p50_ms . join_under_writes",
    "net.frames_per_write": "server_cpu_us_per_update . fanout_burst",
    "net.write_us_per_update": "server_cpu_us_per_update . fanout_burst",
    "net.outbox_push_us_per_update": "server_cpu_us_per_update . fanout_burst",
    "net.outbox_peak_depth": "update_rtt_p99_ms . join_under_writes",
    "net.outbox_kicks": "failed operations . all (a kicked member fails the run)",
    "net.outbox_coalesced": "update_rtt_p99_ms . join_under_writes",
    "core.server_handle_us_per_update": "server_cpu_us_per_update . fanout_burst",
    "core.execute_us_per_update": "server_cpu_us_per_update . fanout_burst",
    "core.effects_per_update": "server_cpu_us_per_update . fanout_burst",
    "core.log_append_us_per_update": "server_cpu_us_per_update, server_rss_mb . fanout_burst",
    "core.snapshot_build_ms_per_join": "join_full_p50_ms . join_under_writes",
    "core.snapshot_cache_hit_ratio": "join_full_p50_ms . join_under_writes",
    "core.chunks_per_chunked_join": "join_chunked_p50_ms . join_under_writes",
    "core.chunk_bytes_mean": "join_chunked_p50_ms . join_under_writes",
    "core.client_handle_us_per_delivery": "update_rtt_p50_ms . join_under_writes",
    "core.client_chunk_ms_per_join": "join_chunked_p50_ms . join_under_writes",
    "storage.wal_calls_per_update": "server_cpu_us_per_update . fanout_burst",
    "storage.records_per_wal_call": "server_cpu_us_per_update . fanout_burst",
    "storage.wal_us_per_update": "server_cpu_us_per_update . fanout_burst",
    "storage.flush_ms_per_s": "updates_per_s . fanout_burst",
    "storage.recover_s": "setup_s . all",
    "runtime.server_start_s": "setup_s . all",
    "runtime.server_busy_share": "updates_per_s . fanout_burst",
    "runtime.loadgen_busy_share": "none (near 1: the generator bounds the run)",
    "runtime.ctx_switches_per_update": "server_cpu_us_per_update . fanout_burst",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Window:
    def __init__(self, before: dict, after: dict, side: str) -> None:
        self.data = window(before[side], after[side])

    def calls(self, *names: str) -> float:
        return sum(self.data["spans"].get(n, [0, 0.0, 0.0])[0] for n in names)

    def total(self, *names: str) -> float:
        return sum(self.data["spans"].get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.data["spans"].get(n, [0, 0.0, 0.0])[2] for n in names)

    def count(self, name: str) -> float:
        return self.data["counts"].get(name, 0)


def per_layer(ctx: Ctx) -> dict[str, float]:
    marks = ctx.marks
    t0, t1 = marks["timed_start"], marks["timed_end"]
    j0, j1 = marks["joins_start"], marks["joins_end"]
    ts, gs = _Window(t0, t1, "server"), _Window(t0, t1, "generator")
    js, gj = _Window(j0, j1, "server"), _Window(j0, j1, "generator")
    updates = ctx.counts["updates"]
    wall = ctx.counts["wall"]
    joins = ctx.counts["joins"]
    chunked = ctx.counts["chunked_joins"]
    encodes = ts.calls("wire.encode", "wire.encode.snapshot")
    deliveries = gs.count("client.deliveries")
    setup = marks["setup"]["server"]["spans"]
    return {
        "wire.encodes_per_update": _ratio(encodes, updates),
        "wire.encode_us_per_update": _ratio(
            ts.self_s("wire.encode", "wire.encode.snapshot") * 1e6, updates),
        "wire.decode_us_per_update": _ratio(ts.self_s("wire.decode") * 1e6, updates),
        "wire.frame_reuses_per_encode": _ratio(ts.count("wire.encoded_frame"), encodes),
        "wire.snapshot_encode_ms_per_join": _ratio(
            js.self_s("wire.encode.snapshot") * 1e3, joins),
        "wire.client_decode_us_per_delivery": _ratio(
            gs.self_s("client.decode") * 1e6, deliveries),
        "net.frames_per_write": _ratio(ts.count("net.frames"), ts.count("net.writes")),
        "net.write_us_per_update": _ratio(ts.self_s("net.write") * 1e6, updates),
        "net.outbox_push_us_per_update": _ratio(
            ts.self_s("net.outbox_push") * 1e6, updates),
        "net.outbox_peak_depth": t1["gauges"]["outbox_peak_depth"],
        "net.outbox_kicks": marks["end"]["gauges"]["outbox_kicks"],
        "net.outbox_coalesced": t1["gauges"]["outbox_coalesced"],
        "core.server_handle_us_per_update": _ratio(
            ts.self_s("core.server_handle") * 1e6, updates),
        "core.execute_us_per_update": _ratio(ts.self_s("core.execute") * 1e6, updates),
        "core.effects_per_update": _ratio(ts.count("core.effects"), updates),
        "core.log_append_us_per_update": _ratio(
            ts.total("core.log_append") * 1e6, updates),
        "core.snapshot_build_ms_per_join": _ratio(
            js.self_s("core.build_snapshot") * 1e3, joins),
        "core.snapshot_cache_hit_ratio": _ratio(
            js.count("core.snapshot_cache_hits"), js.count("core.snapshot_builds")),
        "core.chunks_per_chunked_join": _ratio(js.count("core.chunks"), chunked),
        "core.chunk_bytes_mean": _ratio(js.count("core.chunk_bytes"), js.count("core.chunks")),
        "core.client_handle_us_per_delivery": _ratio(
            gs.self_s("client.handle") * 1e6, deliveries),
        "core.client_chunk_ms_per_join": _ratio(
            gj.total("client.handle.chunk") * 1e3, chunked),
        "storage.wal_calls_per_update": _ratio(ts.count("storage.wal_calls"), updates),
        "storage.records_per_wal_call": _ratio(
            ts.count("storage.wal_records"), ts.count("storage.wal_calls")),
        "storage.wal_us_per_update": _ratio(ts.self_s("storage.wal") * 1e6, updates),
        "storage.flush_ms_per_s": _ratio(ts.total("storage.flush") * 1e3, wall),
        "storage.recover_s": setup.get("storage.recover_all", [0, 0.0, 0.0])[1] / SETUPS,
        "runtime.server_start_s": statistics.median(ctx.start_s),
        "runtime.server_busy_share": _ratio(t1["server_cpu"] - t0["server_cpu"], wall),
        "runtime.loadgen_busy_share": _ratio(t1["gen_cpu"] - t0["gen_cpu"], wall),
        "runtime.ctx_switches_per_update": _ratio(t1["ctx"] - t0["ctx"], updates),
    }


def loadgen_busy_share(ctx: Ctx) -> float:
    t0, t1 = ctx.marks["timed_start"], ctx.marks["timed_end"]
    return _ratio(t1["gen_cpu"] - t0["gen_cpu"], ctx.counts["wall"])


def format_table(workload: str, values: dict[str, float], units: dict[str, str]) -> list[str]:
    lines = [f"per-layer metrics, {workload} (traced run):"]
    for name, value in values.items():
        lines.append(
            f"  {name:38s} {value:14.4f} {units.get(name, ''):6s}  "
            f"should move: {SHOULD_MOVE[name]}")
    return lines

