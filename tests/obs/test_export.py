"""Tests for the Chrome trace exporter and the text breakdown."""

import json

from repro.obs import (
    Tracer,
    breakdown,
    chrome_trace,
    chrome_trace_events,
    format_breakdown,
    write_chrome_trace,
)
from repro.sim import Environment


def _sample_tracer():
    """Two runs: a parent/child pair, plus a second-run solo span."""
    tracer = Tracer()
    env1 = Environment()
    tracer.attach(env1, "alpha/script")

    def first(env):
        parent = tracer.start("outer", category="rayx.task", node="node-0")
        yield env.timeout(2.0)
        child = tracer.start(
            "put", category="objectstore", node="node-0", parent=parent, nbytes=64
        )
        yield env.timeout(1.0)
        tracer.end(child)
        tracer.end(parent)

    env1.process(first(env1))
    env1.run()

    env2 = Environment()
    tracer.attach(env2, "alpha/workflow")

    def second(env):
        with tracer.span("op[0]", category="workflow.operator", node="node-1"):
            yield env.timeout(4.0)

    env2.process(second(env2))
    env2.run()
    tracer.metrics.counter("objectstore.put.bytes").add(64)
    return tracer


def test_chrome_events_have_required_fields_and_microsecond_times():
    tracer = _sample_tracer()
    events = chrome_trace_events(tracer)
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "expected X events"
    for event in complete:
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            assert key in event
    put = next(e for e in complete if e["name"] == "put")
    assert put["ts"] == 2.0 * 1e6
    assert put["dur"] == 1.0 * 1e6
    assert put["args"]["nbytes"] == 64
    assert "parent_span" in put["args"]


def test_chrome_metadata_names_runs_and_lanes():
    tracer = _sample_tracer()
    events = chrome_trace_events(tracer)
    meta = [e for e in events if e["ph"] == "M"]
    process_names = {
        e["pid"]: e["args"]["name"] for e in meta if e["name"] == "process_name"
    }
    assert process_names == {0: "alpha/script", 1: "alpha/workflow"}
    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in meta
        if e["name"] == "thread_name"
    }
    assert "node-0" in thread_names.values()
    assert "node-1" in thread_names.values()


def test_runs_map_to_distinct_pids():
    tracer = _sample_tracer()
    complete = [e for e in chrome_trace_events(tracer) if e["ph"] == "X"]
    pids = {e["pid"] for e in complete}
    assert pids == {0, 1}


def test_chrome_trace_document_is_valid_json(tmp_path):
    tracer = _sample_tracer()
    path = write_chrome_trace(tracer, tmp_path / "trace.json")
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["displayTimeUnit"] == "ms"
    assert isinstance(document["traceEvents"], list)
    assert document["otherData"]["clock"] == "virtual"
    assert document["otherData"]["runs"] == {
        "0": "alpha/script",
        "1": "alpha/workflow",
    }
    assert document["otherData"]["metrics"]["counters"][
        "objectstore.put.bytes"
    ] == 64
    assert document == chrome_trace(tracer)


def test_unfinished_spans_are_excluded_from_export():
    tracer = Tracer()
    tracer.attach(Environment(), "r")
    tracer.start("never-ends", category="x")
    assert [e for e in chrome_trace_events(tracer) if e["ph"] == "X"] == []


def test_breakdown_wall_time_and_category_totals():
    tracer = _sample_tracer()
    first, second = breakdown(tracer)
    assert first.label == "alpha/script"
    assert first.wall_s == 3.0
    assert first.category_total("rayx.task") == 3.0
    assert first.category_total("objectstore") == 1.0
    assert first.store_and_serialization_fraction == 1.0 / 3.0
    assert second.wall_s == 4.0
    assert second.category_total("workflow.operator") == 4.0
    assert second.store_and_serialization_fraction == 0.0


def test_format_breakdown_mentions_runs_categories_and_headline():
    text = format_breakdown(_sample_tracer())
    assert "alpha/script" in text
    assert "alpha/workflow" in text
    assert "objectstore" in text
    assert "object-store + serialization: 33.3% of wall time" in text


def test_format_breakdown_excludes_kernel_categories_by_default():
    tracer = Tracer()
    env = Environment()
    tracer.attach(env, "only-kernel")
    env.tracer = tracer  # what Cluster.__init__ does for real runs

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # Only sim.process spans recorded -> excluded -> no runs to print.
    assert all(s.category == "sim.process" for s in tracer.finished_spans())
    assert format_breakdown(tracer) == "(no finished spans recorded)"
    assert [run.label for run in breakdown(tracer)] == ["only-kernel"]


def test_empty_tracer_formats_placeholder():
    assert format_breakdown(Tracer()) == "(no finished spans recorded)"
