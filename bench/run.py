"""patternd benchmark: end-to-end metrics, or per-layer metrics from a
traced run.

    python3 bench/run.py --workload small-ops --seed 1 --seconds 38 --trace 0

Run from a checkout of the repository; the server is started from `src/`.
With `--trace 0` one untraced patternd (`--workers 4`) serves alternating
slices of a pipelined phase (throughput, server CPU per request) and an
open-loop phase at the workload's fixed rate (latency from each request's
intended send time).  With `--trace 1` an untraced and a traced patternd
each serve a pipelined phase (their ratio is the tracing overhead) and the
traced one then serves an open-loop phase whose spans give the per-layer
metrics.  Every reply is checked against the workload's reference model.

Metrics are printed by name with units, followed by diagnostics (latency
p90/p99, generator lateness, error rate, host steal); the last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}.  A wrong reply makes "correct" false; missing, timed-out,
refused and ERR INTERNAL replies count as "failed".  Full results go to
`.bench_build/bench/` in the checkout.

The host is a 2-vCPU virtual machine whose hypervisor steals CPU time in
bursts: from none to a third of it, changing within minutes.  The host's
steal counter (/proc/stat) is read around every slice, and throughput
counts replies per second of the time the host did not steal: each
slice's replies over its length less the stolen share (`unstolen_rps`).
Server CPU time is not charged for stolen time, so CPU per request needs
no such step.  Wall-clock latency has no such correction and rises
several-fold while the host steals, so it is reported as a diagnostic.
Host notes recorded with every result: loopback only, no CPU pinning, no
kernel or cgroup changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

from analysis import PER_LAYER, layer_metrics, load_trace, percentile
from loadgen import BenchError, LoadGenerator, ServerProcess
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("cpu_us_per_req", "us"),
    ("server_rss_mb", "MB"),
    ("setup_s", "s"),
)

SETUP_SPAWNS = 9      # setup_s is the median over this many server starts
WINDOW = 64           # outstanding requests per connection, pipelined phase
WARMUP_S = 1.0
SLICE_S = 0.5         # one pipelined or open-loop slice of an untraced run
# An open-loop run is invalid when the generator itself ran late: its
# lateness p99 above this bound and above half the measured latency p99.
GEN_LAG_LIMIT_US = 1000.0


def connections() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "connections": connections(),
        "python": platform.python_version(),
        "network": "loopback (127.0.0.1) only",
        "cpu_pinning": "none",
        "kernel_cgroup_changes": "none",
    }


def start_servers(workload, out_dir: Path, count: int) -> tuple[ServerProcess, list]:
    """Start `count` servers one after another, timing spawn -> greeting;
    keep the last one running and return it with every setup time."""
    times, server = [], None
    for i in range(count):
        if server is not None:
            server.kill()
        server = ServerProcess(ROOT, workload, out_dir, "server-%d" % i)
        times.append(server.setup_s)
    return server, times


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    host's CPUs (the `steal` column of /proc/stat)."""
    with open("/proc/stat", "rb") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def measured(phase, *args):
    """Run one generator phase; record the share of the host's CPU time
    stolen while it ran."""
    started, steal = time.perf_counter(), host_steal_s()
    stats = phase(*args)
    stats.steal_share = ((host_steal_s() - steal) / (time.perf_counter() - started)
                         / len(os.sched_getaffinity(0)))
    return stats


def unstolen_rps(stats) -> float:
    """A pipelined slice's replies per second of the time the host did
    not steal from it."""
    return stats.in_window / (stats.seconds * max(0.01, 1.0 - stats.steal_share))


def run_untraced(workload, seconds: int, out_dir: Path) -> dict:
    """Alternate short pipelined and open-loop slices on one server and
    report the median slice throughput (per unstolen second) and CPU cost
    per request; latency goes to the diagnostics."""
    rounds = max(1, int(seconds / (2 * SLICE_S)))
    server, setup_times = start_servers(workload, out_dir, SETUP_SPAWNS)
    pipes, loops = [], []
    try:
        gen = LoadGenerator(server, workload, connections())
        gen.pipelined(WARMUP_S, WINDOW)
        for _ in range(rounds):
            cpu_before = server.cpu_seconds()
            pipes.append(measured(gen.pipelined, SLICE_S, WINDOW))
            pipes[-1].cpu_s = server.cpu_seconds() - cpu_before
            loops.append(measured(gen.open_loop, SLICE_S, workload.open_rate))
        missing, unexpected = gen.finish()
        rss = server.rss_hwm_mb()
    except BaseException:
        server.kill()
        raise
    server.stop()
    latencies = [t * 1e6 for stats in loops for t in stats.latencies]
    lag = [t * 1e6 for stats in loops for t in stats.gen_lag]
    metrics = {
        "throughput_rps": statistics.median(unstolen_rps(p) for p in pipes),
        "cpu_us_per_req": statistics.median(p.cpu_s / max(p.replies, 1) * 1e6 for p in pipes),
        "server_rss_mb": rss,
        "setup_s": statistics.median(setup_times),
    }
    latency_p99, lag_p99 = percentile(latencies, 99), percentile(lag, 99)
    attempted = sum(p.attempted for p in pipes + loops)
    failed = sum(p.failed for p in pipes + loops) + missing + gen.refused
    wrong = gen.wrong + unexpected
    problems = list(gen.errors)
    if unexpected:
        problems.append("%d unexpected or wrong events" % unexpected)
    valid = not (lag_p99 > GEN_LAG_LIMIT_US and lag_p99 > latency_p99 / 2)
    if not valid:
        problems.append("invalid: the generator ran late (lateness p99 %.0f us against "
                        "latency p99 %.0f us), so latency reflects it, not the server"
                        % (lag_p99, latency_p99))
    elapsed = sum(p.seconds for p in pipes + loops)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not wrong,
        "diagnostics": {
            "valid": valid,
            "error_rate": failed / attempted,
            "latency_p50_us": percentile(latencies, 50),
            "latency_p90_us": percentile(latencies, 90),
            "latency_p99_us": latency_p99,
            "latency_samples": len(latencies),
            "throughput_wall_clock_rps": statistics.median(p.in_window / p.seconds for p in pipes),
            "gen_lag_p50_us": percentile(lag, 50),
            "gen_lag_p99_us": lag_p99,
            "host_steal_share": sum(p.steal_share * p.seconds for p in pipes + loops) / elapsed,
            "rounds": rounds,
            "slice_s": SLICE_S,
            "open_loop_rate_rps": workload.open_rate,
            "pipelined_window_per_connection": WINDOW,
            "pipelined_replies": sum(p.replies for p in pipes),
            "throughput_rps_slices": [p.in_window / p.seconds for p in pipes],
            "cpu_us_per_req_slices": [p.cpu_s / max(p.replies, 1) * 1e6 for p in pipes],
            "pipelined_steal_share_slices": [p.steal_share for p in pipes],
            "latency_p50_us_slices": [percentile(l.latencies, 50) * 1e6 for l in loops],
            "open_loop_steal_share_slices": [l.steal_share for l in loops],
            "setup_times_s": setup_times,
        },
    }


def run_traced(workload, seconds: int, out_dir: Path) -> dict:
    pipe_s, open_s = seconds * 0.25, seconds * 0.4
    base_server = ServerProcess(ROOT, workload, out_dir, "untraced")
    try:
        base_gen = LoadGenerator(base_server, workload, connections())
        base_gen.pipelined(WARMUP_S, WINDOW)
        base = base_gen.pipelined(pipe_s, WINDOW)
        base_missing, base_unexpected = base_gen.finish()
    except BaseException:
        base_server.kill()
        raise
    base_server.stop()

    trace_path = out_dir / "trace.json"
    workload = type(workload)(workload.seed)
    server = ServerProcess(ROOT, workload, out_dir, "traced", trace_out=trace_path)
    try:
        gen = LoadGenerator(server, workload, connections())
        gen.pipelined(WARMUP_S, WINDOW)
        server.proc.send_signal(signal.SIGUSR1)
        traced = gen.pipelined(pipe_s, WINDOW)
        server.proc.send_signal(signal.SIGUSR1)  # a fresh window for the open-loop phase
        time.sleep(0.05)
        loop = gen.open_loop(open_s, workload.traced_rate)
        server.proc.send_signal(signal.SIGUSR2)
        missing, unexpected = gen.finish()
    except BaseException:
        server.kill()
        raise
    server.stop()
    trace = load_trace(str(trace_path))
    layers = layer_metrics(trace)
    base_rps = base.in_window / base.seconds
    traced_rps = traced.in_window / traced.seconds
    layers["tracing.throughput_ratio"] = traced_rps / base_rps
    layers["tracing.untraced_throughput_rps"] = base_rps
    attempted = base.attempted + traced.attempted + loop.attempted
    failed = (base.failed + traced.failed + loop.failed + base_missing + missing
              + base_gen.refused + gen.refused)
    problems = base_gen.errors + gen.errors
    if unexpected or base_unexpected:
        problems.append("%d unexpected or wrong events" % (unexpected + base_unexpected))
    requests = layers.pop("requests")
    return {
        "metrics": {name: layers[name] for name, _, _, _ in PER_LAYER},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not (base_gen.wrong or gen.wrong or unexpected or base_unexpected),
        "diagnostics": {
            "error_rate": failed / attempted,
            "traced_open_loop_rate_rps": workload.traced_rate,
            "traced_requests_in_window": requests,
            "traced_throughput_rps": traced_rps,
            "spans": sum(t["spans"] for t in trace["threads"]),
        },
    }


def diagnostic_unit(name: str) -> str:
    """Diagnostics carry their unit in their name's suffix."""
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_rps", "1/s"), ("_share", "ratio"),
                         ("_rate", "ratio")):
        if name.endswith(suffix):
            return unit
    return "flag" if name == "valid" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="patternd end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its server (see the except clauses)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds < 4:
        parser.error("--seconds must be at least 4")
    if not (ROOT / "src" / "patternkit" / "server.py").is_file():
        print("bench: no patternkit sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_build" / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            result = run_traced(workload, args.seconds, out_dir)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            result = run_untraced(workload, args.seconds, out_dir)
            units = dict(END_TO_END)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    result["workload"] = args.workload
    result["why"] = workload.why
    result["provenance"] = provenance(args.seed)
    print("# provenance %s" % json.dumps(result["provenance"], sort_keys=True))
    for problem in result["problems"]:
        print("# problem: %s" % problem)
        print("bench: %s" % problem, file=sys.stderr)
    moves = {name: target for name, _, _, target in PER_LAYER}
    for name, value in result["metrics"].items():
        note = "  (moves %s)" % moves[name] if name in moves else ""
        print("%-16s %-40s %16.4f %s%s" % (args.workload, name, value, units[name], note))
    for name, value in result["diagnostics"].items():
        if isinstance(value, float):
            print("%-16s %-40s %16.4f %s (diagnostic)"
                  % (args.workload, name, value, diagnostic_unit(name)))
        elif not isinstance(value, list):
            print("%-16s %-40s %16s %s (diagnostic)"
                  % (args.workload, name, value, diagnostic_unit(name)))
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
