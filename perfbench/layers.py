"""Per-layer metrics (``--trace 1``) from span dumps and /proc counters.

Every workload prints every metric; NOTES.md maps each to the
end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List

from . import common, tracing

LAYER_UNITS = {
    "latency.estimate_p50_ms": "ms",
    "latency.estimate_p95_ms": "ms",
    "latency.samples": "count",
    "loadgen.lag_ms_p99": "ms",
    "loadgen.frames": "count",
    "loadgen.preroll_s": "s",
    "protocol.encode_us_per_frame": "us",
    "protocol.decode_us_per_frame": "us",
    "protocol.bytes_per_report": "B",
    "batch.split_us_per_frame": "us",
    "pipeline.feed_batch_us_per_call": "us",
    "pipeline.feed_batch_us_per_report": "us",
    "session.reports_per_ingest_call": "reports",
    "pipeline.feed_accept_ratio": "ratio",
    "session.queue_wait_ms_p50": "ms",
    "session.queue_wait_ms_p99": "ms",
    "session.shed": "count",
    "pipeline.tick_ms_p50": "ms",
    "pipeline.tick_ms_p99": "ms",
    "pipeline.tick_calls": "count",
    "pipeline.tick.window_ms": "ms",
    "pipeline.tick.fuse_ms": "ms",
    "pipeline.tick.extract_ms": "ms",
    "pipeline.tick_insufficient_ratio": "ratio",
    "pipeline.tick_non_monitored_ratio": "ratio",
    "session.sessions": "count",
    "session.non_monitored_sessions": "count",
    "emit.us_per_estimate": "us",
    "fabric.router_cpu_us_per_report": "us",
    "fabric.worker_cpu_us_per_report": "us",
    "fabric.worker_skew": "ratio",
    "sim.mac_s": "s",
    "sim.synthesize_s": "s",
    "sim.reports_per_trial": "reports",
    "pipeline.process_s": "s",
    "pipeline.process_us_per_report": "us",
    "trace.coverage": "ratio",
    "trace.named_coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Span names grouped into the layers whose self time the breakdown
#: reports (``self.<layer>_us_per_report``).  ``serve.loop`` is the
#: asyncio loop iteration minus every call below it: socket reads and
#: writes, callback dispatch and the coroutine code between layer calls.
#: It is the residual, so ``trace.named_coverage`` leaves it out.
LAYER_GROUPS = {
    "serve.loop": ("loop",),
    "protocol": ("protocol.feed", "protocol.decode", "protocol.encode"),
    "batch": ("batch.split", "batch.select"),
    "session": ("session.submit", "session.lookup", "session.ingest",
                "session.estimate", "serve.checkpoint"),
    "pipeline.feed": ("pipeline.feed_batch",),
    "pipeline.tick": ("pipeline.tick",),
    "emit": ("emit.to_wire", "emit.publish", "emit.encode",
             "fabric.watch_decode"),
    "fabric": ("fabric.ring", "fabric.write"),
    "gc": ("gc",),
}

for _group in LAYER_GROUPS:
    LAYER_UNITS[f"self.{_group}_us_per_report"] = "us"

#: The group that holds what no wrapped call accounts for.
RESIDUAL = "serve.loop"

_GROUP_OF = {name: group for group, names in LAYER_GROUPS.items()
             for name in names}


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


class SpanTotals:
    """Span statistics summed over every traced process of one pass."""

    def __init__(self, dumps: Dict[int, Dict], window=None) -> None:
        self.by_pid: Dict[int, Dict[str, Dict]] = {}
        self.tick_ns: List[int] = []
        self.counts: Dict[str, float] = {}
        self.queue_waits_ns: List[int] = []
        self.ingests_by_pid: Dict[int, List] = {}
        self.feeds: List = []
        self.ticks: List = []
        self.stages: Dict[str, Dict] = {}
        for pid, dump in dumps.items():
            spans, names = dump["spans"], dump["names"]
            keep = (tracing.in_window(spans, *window)
                    if window is not None else None)
            self.by_pid[pid] = tracing.self_times(names, spans, keep)
            self.tick_ns.extend(
                tracing.durations_of("pipeline.tick", names, spans, keep))
            for key, value in dump["counts"].items():
                if key == "perf_stages":
                    for stage, row in value.items():
                        acc = self.stages.setdefault(
                            stage, {"seconds": 0.0, "calls": 0})
                        acc["seconds"] += row["seconds"]
                        acc["calls"] += row["calls"]
                else:
                    self.counts[key] = self.counts.get(key, 0) + value
            lo, hi = window if window is not None else (0, 1 << 63)

            def kept(key):
                return [row for row in dump.get(key, [])
                        if lo <= row[0] <= hi]

            self.queue_waits_ns.extend(w for _at, w in kept("queue_waits"))
            self.ingests_by_pid[pid] = kept("ingests")
            self.feeds.extend(kept("feeds"))
            self.ticks.extend(kept("ticks"))

    def row(self, name: str) -> Dict[str, int]:
        out = {"calls": 0, "total_ns": 0, "self_ns": 0}
        for rows in self.by_pid.values():
            for key in out:
                out[key] += rows.get(name, {}).get(key, 0)
        return out

    def self_ns(self) -> Dict[str, int]:
        """Self ns per layer group, unknown span names under their own."""
        groups: Dict[str, int] = {}
        for rows in self.by_pid.values():
            for name, row in rows.items():
                group = _GROUP_OF.get(name, name)
                groups[group] = groups.get(group, 0) + row["self_ns"]
        return groups

    def stage_ms(self, stage: str) -> float:
        row = self.stages.get(stage)
        return _per(row["seconds"] * 1e3, row["calls"]) if row else 0.0


def _zeros() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_UNITS}


def _fill_serve(values: Dict[str, float], spans: SpanTotals,
                reports: int) -> None:
    decode = spans.row("protocol.decode")
    split = spans.row("batch.split")
    feed = spans.row("pipeline.feed_batch")
    emit_ns = sum(spans.row(n)["total_ns"]
                  for n in ("emit.to_wire", "emit.publish", "emit.encode",
                            "fabric.watch_decode"))
    ticks = spans.ticks
    tick_ms = [d / 1e6 for d in spans.tick_ns]
    waits_ms = [w / 1e6 for w in spans.queue_waits_ns]
    counts = spans.counts
    ingests = [row for rows in spans.ingests_by_pid.values() for row in rows]
    ingest_reports = sum(n for _at, n in ingests)
    offered = sum(n for _at, n, _ok in spans.feeds)
    accepted = sum(ok for _at, _n, ok in spans.feeds)
    values.update({
        "protocol.decode_us_per_frame": _per(decode["total_ns"] / 1e3,
                                             decode["calls"]),
        "batch.split_us_per_frame": _per(split["total_ns"] / 1e3,
                                         split["calls"]),
        "pipeline.feed_batch_us_per_call": _per(feed["total_ns"] / 1e3,
                                                feed["calls"]),
        "pipeline.feed_batch_us_per_report": _per(feed["total_ns"] / 1e3,
                                                  offered),
        "session.reports_per_ingest_call": _per(ingest_reports,
                                                len(ingests)),
        "pipeline.feed_accept_ratio": _per(accepted, offered),
        "session.queue_wait_ms_p50": common.percentile(waits_ms, 50),
        "session.queue_wait_ms_p99": common.percentile(waits_ms, 99),
        "pipeline.tick_ms_p50": common.percentile(tick_ms, 50),
        "pipeline.tick_ms_p99": common.percentile(tick_ms, 99),
        "pipeline.tick_calls": len(ticks),
        "pipeline.tick.window_ms": spans.stage_ms("pipeline.tick.window"),
        "pipeline.tick.fuse_ms": spans.stage_ms("pipeline.tick.fuse"),
        "pipeline.tick.extract_ms": spans.stage_ms("pipeline.tick.extract"),
        "pipeline.tick_insufficient_ratio": _per(
            sum(1 for t in ticks if t[2]), len(ticks)),
        "pipeline.tick_non_monitored_ratio": _per(
            sum(1 for t in ticks if t[1]), len(ticks)),
        "session.sessions": counts.get("sessions", 0),
        "session.non_monitored_sessions": counts.get(
            "sessions_non_monitored", 0),
        "emit.us_per_estimate": _per(emit_ns / 1e3,
                                     spans.row("emit.to_wire")["calls"]),
    })
    _fill_self(values, spans, reports)


def _fill_self(values: Dict[str, float], spans: SpanTotals,
               reports: int) -> None:
    for group, ns in spans.self_ns().items():
        key = f"self.{group}_us_per_report"
        if key in values:
            values[key] = _per(ns / 1e3, reports)


def _fill_latency(values: Dict[str, float], latencies_ms: List[float]) -> None:
    """Estimate latency of the untraced pass, with its base."""
    values["latency.estimate_p50_ms"] = common.percentile(latencies_ms, 50)
    values["latency.estimate_p95_ms"] = common.percentile(latencies_ms, 95)
    values["latency.samples"] = len(latencies_ms)


def _fill_sim(values: Dict[str, float], stages: Dict[str, Dict],
              trials: int, reports: int) -> None:
    values["sim.mac_s"] = _per(
        stages.get("reader.mac", {}).get("seconds", 0.0), trials)
    values["sim.synthesize_s"] = _per(
        stages.get("reader.synthesize", {}).get("seconds", 0.0), trials)
    values["sim.reports_per_trial"] = _per(reports, trials)


def trace_coverage(layer_ns: Dict[str, int],
                   busy_ns: float) -> Dict[str, float]:
    """``trace.coverage``: every layer's self time over SUT busy CPU.
    ``trace.named_coverage``: the same without the RESIDUAL loop time,
    so a call that loses its wrapper shows as a drop."""
    return {
        "trace.coverage": tracing.coverage(layer_ns.values(), busy_ns),
        "trace.named_coverage": tracing.coverage(
            (ns for group, ns in layer_ns.items() if group != RESIDUAL),
            busy_ns),
    }


def ward_layers(ward, base, traced, analyze_s: float,
                analyze_reports: int) -> Dict[str, Dict]:
    """Per-layer metrics of a ward workload: untraced pass ``base``,
    traced pass ``traced``."""
    values = _zeros()
    _fill_latency(values, base.latencies_ms)
    load = base.load
    reports = load.reports_sent
    values["loadgen.lag_ms_p99"] = common.percentile(
        [x * 1e3 for x in load.lag_s], 99)
    values["loadgen.frames"] = len(load.sent_frames)
    values["loadgen.preroll_s"] = load.preroll_s
    values["protocol.encode_us_per_frame"] = _per(load.encode_ns / 1e3,
                                                  len(load.sent_frames))
    values["protocol.bytes_per_report"] = _per(load.bytes_sent, reports)
    values["session.shed"] = load.shed
    pids = list(load.cpu_s)
    if ward.workload == "ward_fabric":
        router, workers = pids[0], pids[1:]
    else:
        router, workers = None, pids[:1]
    if router is not None:
        values["fabric.router_cpu_us_per_report"] = _per(
            load.cpu_s[router] * 1e6, reports)
    values["fabric.worker_cpu_us_per_report"] = _per(
        sum(load.cpu_s[p] for p in workers) * 1e6, reports)
    dumps = tracing.load_dumps(traced.trace_dir)
    missing = set(traced.load.cpu_s) - set(dumps)
    if missing:
        raise RuntimeError(f"no span dump from SUT pids {sorted(missing)}")
    spans = SpanTotals(dumps, traced.load.window_ns)
    per_worker = [sum(n for _at, n in spans.ingests_by_pid[p])
                  for p in list(traced.load.cpu_s)[1 if router else 0:]]
    values["fabric.worker_skew"] = _per(max(per_worker),
                                        sum(per_worker) / len(per_worker))
    _fill_serve(values, spans, reports)
    _fill_sim(values, ward.sim_stages, len(ward.rooms),
              sum(len(room.result.reports) for room in ward.rooms))
    values["pipeline.process_s"] = _per(analyze_s, len(ward.rooms))
    values["pipeline.process_us_per_report"] = _per(analyze_s * 1e6,
                                                    analyze_reports)
    busy_ns = sum(traced.load.cpu_s.values()) * 1e9
    values.update(trace_coverage(spans.self_ns(), busy_ns))
    values["trace.overhead"] = _per(base.users_per_core,
                                    traced.users_per_core) - 1.0
    return common.metric_block(values, LAYER_UNITS)
