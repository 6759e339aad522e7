"""Turn a traced run's spans into per-layer metrics.

A span's self time is its duration minus the part of it that its child
spans cover.  Means are over the spans recorded in the window; ratios are
per request, where a request is one `server.handle_line` span.
"""

from __future__ import annotations

import json
from array import array

from tracer import COLUMNS

# name, unit, better, (end-to-end metric, workload) it should move; the
# latency_* figures are printed as diagnostics, not gated end-to-end metrics
PER_LAYER = (
    ("reactor.loop_busy_share", "ratio", "lower", "throughput_rps, cpu_us_per_req (and latency_p50_us) on small-ops"),
    ("reactor.commands_per_req", "count", "lower", "throughput_rps, cpu_us_per_req (and latency_p50_us) on small-ops"),
    ("reactor.wakeups_per_req", "count", "lower", "throughput_rps, cpu_us_per_req (and latency_p50_us) on small-ops"),
    ("reactor.noop_modify_share", "ratio", "lower", "throughput_rps, cpu_us_per_req (and latency_p50_us) on small-ops"),
    ("concurrency.submit_us", "us", "lower", "latency_p90_us on small-ops"),
    ("concurrency.queue_wait_us_p50", "us", "lower", "latency_p90_us on small-ops"),
    ("concurrency.queue_wait_us_p99", "us", "lower", "latency_p90_us on small-ops"),
    ("concurrency.queue_depth_max", "count", "lower", "latency_p90_us on small-ops"),
    ("concurrency.lines_per_task", "count", "higher", "latency_p90_us on small-ops"),
    ("server.framing_us_per_line", "us", "lower", "throughput_rps on small-ops"),
    ("server.lines_per_recv", "count", "higher", "throughput_rps on small-ops"),
    ("server.sends_per_reply", "count", "lower", "throughput_rps on small-ops"),
    ("server.queue_reply_us", "us", "lower", "throughput_rps on small-ops"),
    ("server.handle_line_us", "us", "lower", "throughput_rps on small-ops"),
    ("server.out_buffer_hwm_bytes", "bytes", "lower", "server_rss_mb on doc-eval"),
    ("wire.parse_request_us", "us", "lower", "throughput_rps on small-ops"),
    ("wire.render_reply_us", "us", "lower", "throughput_rps on small-ops and fanout-json-log"),
    ("messaging.request_build_us", "us", "lower", "latency_p90_us on fanout-json-log"),
    ("messaging.chain_walk_us", "us", "lower", "latency_p90_us on fanout-json-log"),
    ("messaging.publish_us_per_observer", "us", "lower", "latency_p90_us on fanout-json-log"),
    ("messaging.chat_us_per_member", "us", "lower", "latency_p90_us on fanout-json-log"),
    ("structural_kit.middleware_us", "us", "lower", "throughput_rps, cpu_us_per_req on fanout-json-log"),
    ("structural_kit.log_write_us", "us", "lower", "throughput_rps, cpu_us_per_req on fanout-json-log"),
    ("expr.parse_us", "us", "lower", "throughput_rps on doc-eval"),
    ("expr.eval_us", "us", "lower", "throughput_rps on doc-eval"),
    ("expr.parse_ns_per_node", "ns", "lower", "throughput_rps on doc-eval"),
    ("expr.eval_ns_per_node", "ns", "lower", "throughput_rps on doc-eval"),
    ("session_commands.write_us", "us", "lower", "throughput_rps, latency_p90_us on doc-eval"),
    ("session_commands.undo_us", "us", "lower", "throughput_rps, latency_p90_us on doc-eval"),
    ("session_commands.restore_us", "us", "lower", "throughput_rps, latency_p90_us on doc-eval"),
    ("session_commands.doc_bytes_max", "bytes", "lower", "throughput_rps, latency_p90_us on doc-eval"),
    ("policies.price_us", "us", "lower", "throughput_rps on small-ops"),
    ("creational.registry_bump_us", "us", "lower", "cpu_us_per_req on small-ops"),
    ("creational.bumps_per_req", "count", "lower", "cpu_us_per_req on small-ops"),
    ("tracing.throughput_ratio", "ratio", "higher", "none: traced over untraced throughput_rps"),
    ("tracing.untraced_throughput_rps", "1/s", "higher", "none: base of tracing.throughput_ratio"),
)


def load_trace(path: str) -> dict:
    """Read a traced server's output: the JSON header plus, per thread,
    one int64 array per column."""
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    with open(path + ".spans", "rb") as fh:
        for thread in trace["threads"]:
            for column in COLUMNS:
                values = array("q")
                values.fromfile(fh, thread["spans"])
                thread[column] = values
    return trace


def self_times(start, end, parent) -> list:
    """Per span, its duration minus the union of its children's intervals
    clipped to it.  Children of one span are disjoint when they come from
    one thread's call stack; the union also covers overlapping input."""
    children: dict[int, list] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    result = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(e - s - covered)
    return result


def clipped_total(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals inside [lo, hi]."""
    total = 0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


class SpanStats:
    """Per span name: count, total duration and total self time (ns)."""

    def __init__(self, trace: dict):
        names = trace["names"]
        self.count = {name: 0 for name in names}
        self.total = {name: 0 for name in names}
        self.self_total = {name: 0 for name in names}
        self.select_intervals = []
        for thread in trace["threads"]:
            start, end = thread["start"], thread["end"]
            selfs = self_times(start, end, thread["parent"])
            for i, name_id in enumerate(thread["name"]):
                name = names[name_id]
                self.count[name] += 1
                self.total[name] += end[i] - start[i]
                self.self_total[name] += selfs[i]
                if name == "reactor.select":
                    self.select_intervals.append((start[i], end[i]))

    def mean_us(self, name: str) -> float:
        return self.total.get(name, 0) / self.count[name] / 1e3 if self.count.get(name) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric except the tracing.* pair; a layer the
    workload does not reach reads 0."""
    spans = SpanStats(trace)
    counters, maxima = trace["counters"], trace["maxima"]
    c = lambda key: counters.get(key, 0)  # noqa: E731
    lo, hi = trace["window"]
    requests = spans.count.get("server.handle_line", 0)
    waits = trace["samples"].get("concurrency.queue_wait_ns", [])
    select_ns = clipped_total(spans.select_intervals, lo, hi)
    nodes = c("expr.nodes")
    m = {
        "reactor.loop_busy_share": 1.0 - _ratio(select_ns, hi - lo),
        "reactor.commands_per_req": _ratio(c("reactor.commands"), requests),
        "reactor.wakeups_per_req": _ratio(c("reactor.wake_sends"), requests),
        "reactor.noop_modify_share": _ratio(c("reactor.selector_modify_noop"),
                                            c("reactor.selector_modify")),
        "concurrency.submit_us": spans.mean_us("concurrency.submit"),
        "concurrency.queue_wait_us_p50": percentile(waits, 50) / 1e3,
        "concurrency.queue_wait_us_p99": percentile(waits, 99) / 1e3,
        "concurrency.queue_depth_max": maxima.get("concurrency.queue_depth", 0),
        "concurrency.lines_per_task": _ratio(requests, spans.count.get("concurrency.task", 0)),
        "server.framing_us_per_line": _ratio(spans.self_total.get("server.pump_lines", 0),
                                             spans.count.get("server.enqueue", 0)) / 1e3,
        "server.lines_per_recv": _ratio(c("server.lines_in"), c("server.conn_recvs")),
        "server.sends_per_reply": _ratio(c("server.conn_sends"), c("server.lines_out")),
        "server.queue_reply_us": spans.mean_us("server.queue_reply"),
        "server.handle_line_us": spans.mean_us("server.handle_line"),
        "server.out_buffer_hwm_bytes": maxima.get("server.send_len_max", 0),
        "wire.parse_request_us": spans.mean_us("wire.parse_request"),
        "wire.render_reply_us": spans.mean_us("wire.render_reply"),
        "messaging.request_build_us": spans.mean_us("messaging.request_build"),
        "messaging.chain_walk_us": _ratio(
            spans.self_total.get("messaging.chain_handle", 0)
            + spans.self_total.get("messaging.chain_walk", 0),
            spans.count.get("messaging.chain_handle", 0)) / 1e3,
        "messaging.publish_us_per_observer": _ratio(spans.total.get("messaging.publish", 0),
                                                    c("messaging.notified")) / 1e3,
        "messaging.chat_us_per_member": _ratio(spans.total.get("messaging.chat_send", 0),
                                               c("messaging.chat_members")) / 1e3,
        "structural_kit.middleware_us": _ratio(
            spans.self_total.get("structural_kit.logging", 0)
            + spans.self_total.get("structural_kit.timing", 0),
            spans.count.get("structural_kit.logging", 0)) / 1e3,
        "structural_kit.log_write_us": spans.mean_us("structural_kit.log_write"),
        "expr.parse_us": spans.mean_us("expr.parse"),
        "expr.eval_us": spans.mean_us("expr.eval"),
        "expr.parse_ns_per_node": _ratio(spans.total.get("expr.parse", 0), nodes),
        "expr.eval_ns_per_node": _ratio(spans.total.get("expr.eval", 0), nodes),
        "session_commands.write_us": spans.mean_us("session_commands.write"),
        "session_commands.undo_us": spans.mean_us("session_commands.undo"),
        "session_commands.restore_us": spans.mean_us("session_commands.restore"),
        "session_commands.doc_bytes_max": maxima.get("session_commands.doc_bytes", 0),
        "policies.price_us": _ratio(spans.total.get("policies.parse_strategy", 0)
                                    + spans.total.get("policies.apply_discount", 0),
                                    spans.count.get("policies.parse_strategy", 0)) / 1e3,
        "creational.registry_bump_us": spans.mean_us("creational.registry_bump"),
        "creational.bumps_per_req": _ratio(spans.count.get("creational.registry_bump", 0),
                                           requests),
    }
    m["requests"] = requests
    return m
