"""Self-tests for the benchmark's own code.

    python3 -m pytest bench/test_bench.py

They check the span arithmetic, that the reference model agrees with the
patternkit code it stands in for, and that the model agrees with a live
patternd on a short run of every workload.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import analysis
import loadgen
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from patternkit.expr import Context, eval_expr, parse_expr  # noqa: E402
from patternkit.policies import apply_discount, parse_strategy  # noqa: E402
from patternkit.wire import format_money  # noqa: E402


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_children_but_not_grandchildren():
    # 0: [0, 100) root; 1: [10, 40) child; 2: [20, 30) grandchild;
    # 3: [50, 70) child
    start, end, parent = [0, 10, 20, 50], [100, 40, 30, 70], [-1, 0, 1, 0]
    assert analysis.self_times(start, end, parent) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    start, end, parent = [0, 10, 20, 90], [100, 40, 50, 130], [-1, 0, 0, 0]
    # children cover [10, 50) and [90, 100) inside the parent
    assert analysis.self_times(start, end, parent)[0] == 50


def test_clipped_total_merges_and_clips():
    intervals = [(5, 15), (10, 20), (30, 40), (95, 120)]
    assert analysis.clipped_total(intervals, 0, 100) == 15 + 10 + 5


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert analysis.percentile(values, 50) == 50
    assert analysis.percentile(values, 99) == 99
    assert analysis.percentile([7], 99) == 7
    assert analysis.percentile([], 50) == 0.0


def test_tracer_records_parents_request_ids_and_self_time(tmp_path):
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    outer_id, inner_id = tracer.name_id("outer"), tracer.name_id("inner")

    def inner():
        return 1

    def outer():
        tracer.buffer().rid = 7
        return tracer.call(inner_id, inner, (), {}) + tracer.call(inner_id, inner, (), {})

    tracer.call(outer_id, outer, (), {})  # not recording: no span
    tracer.buffer().rid = 0
    tracer.start()
    assert tracer.call(outer_id, outer, (), {}) == 2
    tracer.stop()
    path = str(tmp_path / "trace.json")
    tracer.dump(path)
    trace = analysis.load_trace(path)
    (thread,) = trace["threads"]
    assert list(thread["name"]) == [outer_id, inner_id, inner_id]
    assert list(thread["parent"]) == [-1, 0, 0]
    assert list(thread["rid"]) == [0, 7, 7]
    durations = [e - s for s, e in zip(thread["start"], thread["end"])]
    selfs = analysis.self_times(thread["start"], thread["end"], thread["parent"])
    assert selfs[0] == durations[0] - durations[1] - durations[2]


def test_tracer_start_discards_the_previous_window(tmp_path):
    tracer = Tracer()
    span = tracer.name_id("span")
    tracer.start()
    tracer.call(span, lambda: None, (), {})
    tracer.count("events", 3)
    tracer.start()
    tracer.call(span, lambda: None, (), {})
    tracer.stop()
    path = str(tmp_path / "trace.json")
    tracer.dump(path)
    trace = analysis.load_trace(path)
    assert [t["spans"] for t in trace["threads"]] == [1]
    assert trace["counters"] == {}


# -- the reference model against the code it re-implements -------------------


def test_model_expressions_match_patternkit_evaluation():
    rng = random.Random(5)
    for _ in range(300):
        names = {"v%d" % i: rng.randint(-1000, 1000) for i in range(rng.randint(0, 8))}
        terms = rng.choice((2, 5, 20, 100))
        text, value = workloads.eval_case(rng, terms, workloads.MAX_PAREN_DEPTH, names)
        assert eval_expr(parse_expr(text), Context(dict(names))) == value, text


def test_model_expressions_stay_inside_documented_limits():
    rng = random.Random(6)
    for _ in range(200):
        text, _ = workloads.eval_case(rng, rng.randint(90, 110), workloads.MAX_PAREN_DEPTH, {})
        depth = deepest = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            deepest = max(deepest, depth)
        assert deepest <= workloads.MAX_PAREN_DEPTH
        assert len(("EVAL " + text).encode()) <= workloads.MAX_LINE_BYTES


def test_model_prices_match_patternkit_policies():
    rng = random.Random(7)
    for _ in range(500):
        line, expected = workloads.price_case(rng)
        _, amount, strategy = line.split()
        assert format_money(apply_discount(parse_strategy(strategy), int(amount) * 100)) == expected


def test_doc_eval_sessions_respect_limits():
    workload = workloads.DocEval(3)
    script = workload.script(0)
    lines = []
    while not script.done:
        data, _, _ = script.next()
        lines.append(data)
    assert lines[-1] == b"QUIT\n"
    assert sum(line.startswith(b"SNAPSHOT") for line in lines) <= workloads.MAX_SNAPSHOTS
    assert len(script.doc) <= workloads.MAX_DOC_BYTES
    assert max(len(line) for line in lines) <= workloads.MAX_LINE_BYTES + 1


def test_cycles_replay_identically_after_rewind():
    workload = workloads.SmallOps(4)
    cycle = workload.script(0)
    first = [cycle.next() for _ in range(len(cycle.entries))]
    assert [cycle.next() for _ in range(len(cycle.entries))] == first


def test_inputs_depend_only_on_the_seed():
    def lines(seed):
        workload = workloads.DocEval(seed)
        script = workload.script(1)
        return [script.next()[0] for _ in range(200)]
    assert lines(11) == lines(11)
    assert lines(11) != lines(12)


# -- the reference model against a live server ------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_model_agrees_with_live_server(name, tmp_path):
    workload = workloads.WORKLOADS[name](9)
    workload.LIFETIME = 300  # doc-eval sessions QUIT and reconnect within the run
    server = loadgen.ServerProcess(ROOT, workload, tmp_path, "selftest")
    try:
        gen = loadgen.LoadGenerator(server, workload, 2)
        phases = [gen.pipelined(1.0, 8), gen.open_loop(0.5, workload.open_rate / 2)]
        missing, unexpected = gen.finish()
    finally:
        server.stop()
    assert gen.errors == []
    assert all(p.replies == p.attempted and not p.failed and not p.wrong for p in phases)
    assert (missing, unexpected) == (0, 0)


# -- the result contract ------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in analysis.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_run_emits_every_per_layer_metric():
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                          "fanout-json-log", "--seed", "1", "--seconds", "4", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [row[0] for row in analysis.PER_LAYER]
    assert result["metrics"]["messaging.publish_us_per_observer"]["value"] > 0
    assert result["metrics"]["structural_kit.log_write_us"]["value"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-ops",
                          "--seed", "1", "--seconds", "4", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
