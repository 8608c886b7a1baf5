"""Tests for the observability metrics registry."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.obs.metrics import _label_key


def test_counter_accumulates_and_is_labelled():
    metrics = MetricsRegistry()
    metrics.counter("net.bytes", link="a->b").add(100)
    metrics.counter("net.bytes", link="a->b").add(50)
    metrics.counter("net.bytes", link="b->c").add(7)
    assert metrics.value("net.bytes", link="a->b") == 150
    assert metrics.value("net.bytes", link="b->c") == 7
    assert metrics.total("net.bytes") == 157


def test_counter_rejects_negative_increments():
    metrics = MetricsRegistry()
    with pytest.raises(ValueError):
        metrics.counter("n").add(-1)


def test_counter_inc_defaults_to_one():
    metrics = MetricsRegistry()
    metrics.counter("calls").inc()
    metrics.counter("calls").inc()
    assert metrics.total("calls") == 2


def test_label_order_does_not_matter():
    metrics = MetricsRegistry()
    metrics.counter("x", a=1, b=2).add(3)
    metrics.counter("x", b=2, a=1).add(4)
    assert metrics.value("x", a=1, b=2) == 7
    assert len(metrics.counters("x")) == 1


def test_labels_equal_across_types_keep_their_own_series():
    """``1``, ``True`` and ``1.0`` compare equal but label different
    series, as do ``0.0`` and ``-0.0``; ``1`` and ``"1"`` label the same
    one; unhashable values still resolve."""
    metrics = MetricsRegistry()
    for _ in range(2):
        for value in (1, True, "1", 1.0, [1], 1, True, 0.0, -0.0):
            metrics.counter("x", n=value).inc()
    assert metrics.snapshot()["counters"] == {
        "x{n=1}": 6, "x{n=True}": 4, "x{n=1.0}": 2, "x{n=[1]}": 2,
        "x{n=0.0}": 2, "x{n=-0.0}": 2,
    }
    assert metrics.counter("x", n=1) is metrics.counter("x", n="1")
    assert metrics.counter("x", n=1) is not metrics.counter("x", n=True)
    assert metrics.counter("x", n=[1]) is metrics.counter("x", n="[1]")


LABEL_VALUES = st.sampled_from(
    [0, 1, True, False, 1.0, 0.0, -0.0, "1", "True", "", None, "None", (1,), [1]]
)


@settings(max_examples=200, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["counter", "gauge", "histogram"]),
            st.dictionaries(st.sampled_from("ab"), LABEL_VALUES, max_size=2),
        ),
        max_size=12,
    )
)
@example(calls=[("counter", {"a": 0.0}), ("counter", {"a": -0.0})])
@example(calls=[("gauge", {"a": 1}), ("gauge", {"a": True}), ("gauge", {"a": "1"})])
def test_every_call_resolves_to_its_canonical_instrument(calls):
    metrics = MetricsRegistry()
    for kind, labels in calls + calls:
        instrument = getattr(metrics, kind)("x", **labels)
        assert metrics._instruments[(kind, "x", _label_key(labels))] is instrument
        assert instrument.labels == _label_key(labels)


def test_gauge_tracks_last_and_max():
    metrics = MetricsRegistry()
    gauge = metrics.gauge("depth")
    gauge.set(3)
    gauge.set(9)
    gauge.set(1)
    assert gauge.value == 1
    assert gauge.max_value == 9


def test_histogram_summary_stats():
    metrics = MetricsRegistry()
    hist = metrics.histogram("queue")
    for v in (1.0, 2.0, 3.0):
        hist.record(v)
    assert hist.count == 3
    assert hist.total == 6.0
    assert hist.min == 1.0
    assert hist.max == 3.0
    assert hist.mean == pytest.approx(2.0)


def test_snapshot_is_json_friendly_and_keyed_by_labels():
    metrics = MetricsRegistry()
    metrics.counter("bytes", codec="python").add(10)
    metrics.gauge("depth", link="a->b").set(4)
    metrics.histogram("lat").record(0.5)
    snap = metrics.snapshot()
    assert snap["counters"]["bytes{codec=python}"] == 10
    assert snap["gauges"]["depth{link=a->b}"]["value"] == 4
    assert snap["histograms"]["lat"]["count"] == 1


def test_clear_resets_everything():
    metrics = MetricsRegistry()
    metrics.counter("a").inc()
    metrics.clear()
    assert metrics.total("a") == 0
    assert metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_null_registry_is_inert():
    NULL_METRICS.counter("x").add(5)
    NULL_METRICS.gauge("y").set(2)
    NULL_METRICS.histogram("z").record(1.0)
    assert NULL_METRICS.total("x") == 0
    assert NULL_METRICS.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
