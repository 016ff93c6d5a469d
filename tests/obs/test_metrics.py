"""Unit tests for the metric primitives (counters, gauges, histograms)."""

from __future__ import annotations

import inspect
import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    format_key,
)


# -- format_key ------------------------------------------------------------


def test_format_key_no_labels():
    assert format_key("sender.data", ()) == "sender.data"


def test_format_key_labels_render_sorted():
    labels = (("node", "primary"), ("scope", "cross"))
    assert format_key("x", labels) == "x{node=primary,scope=cross}"


# -- counter / gauge -------------------------------------------------------


def test_counter_inc_and_reset():
    c = Counter("c")
    c.inc()
    c.inc(5)
    assert c.value == 6
    c.reset()
    assert c.value == 0


def test_gauge_set_inc_dec():
    g = Gauge("g")
    g.set(10.0)
    g.inc(2.5)
    g.dec(0.5)
    assert g.value == 12.0
    g.reset()
    assert g.value == 0.0


# -- histogram edge cases ---------------------------------------------------


def test_empty_histogram_is_all_none():
    h = Histogram("h")
    assert h.count == 0
    assert h.min is None
    assert h.max is None
    assert h.mean is None
    assert h.p50 is None and h.p95 is None and h.p99 is None
    assert h.percentile(0.0) is None
    assert h.percentile(100.0) is None
    assert h.summary()["count"] == 0


def test_single_sample_is_every_percentile_of_itself():
    h = Histogram("h")
    h.observe(3.25)
    for p in (0.0, 1.0, 50.0, 95.0, 99.0, 100.0):
        assert h.percentile(p) == 3.25
    assert h.min == h.max == h.mean == 3.25
    assert h.count == 1


def test_percentile_out_of_range_rejected():
    h = Histogram("h")
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(-0.1)
    with pytest.raises(ValueError):
        h.percentile(100.1)


def test_percentiles_linearly_interpolate():
    h = Histogram("h")
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    assert h.percentile(0.0) == 1.0
    assert h.percentile(100.0) == 100.0
    assert h.p50 == pytest.approx(50.5)
    assert h.p95 == pytest.approx(95.05)
    assert h.p99 == pytest.approx(99.01)


def test_percentiles_of_two_samples():
    h = Histogram("h")
    h.observe(0.0)
    h.observe(10.0)
    assert h.p50 == pytest.approx(5.0)
    assert h.percentile(25.0) == pytest.approx(2.5)


def test_unsorted_observations_sort_lazily():
    h = Histogram("h")
    for v in (5.0, 1.0, 9.0, 3.0, 7.0):
        h.observe(v)
    assert h.p50 == 5.0
    assert h.min == 1.0
    assert h.max == 9.0
    # observing again after a percentile read still works
    h.observe(0.0)
    assert h.percentile(0.0) == 0.0


def test_histogram_reset():
    h = Histogram("h")
    h.observe(1.0)
    h.reset()
    assert h.count == 0
    assert h.p50 is None


# -- registry ---------------------------------------------------------------


def test_registry_returns_same_instrument_for_same_key():
    reg = MetricsRegistry()
    assert reg.counter("a", x=1) is reg.counter("a", x=1)
    assert reg.counter("a", x=1) is not reg.counter("a", x=2)
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_label_order_is_irrelevant():
    reg = MetricsRegistry()
    assert reg.counter("a", x=1, y=2) is reg.counter("a", y=2, x=1)


def test_counter_value_and_total():
    reg = MetricsRegistry()
    reg.counter("pkts", kind="rx").inc(3)
    reg.counter("pkts", kind="drop").inc(2)
    assert reg.counter_value("pkts", kind="rx") == 3
    assert reg.counter_value("pkts", kind="nope") == 0
    assert reg.counter_total("pkts") == 5


def test_snapshot_is_sorted_and_json_stable():
    reg = MetricsRegistry()
    reg.counter("z").inc()
    reg.counter("a", node="n2").inc(2)
    reg.counter("a", node="n1").inc(1)
    reg.gauge("depth").set(4.0)
    reg.histogram("lat").observe(0.5)
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a{node=n1}", "a{node=n2}", "z"]
    # two dumps of the same history are bit-identical
    assert reg.to_json() == reg.to_json()
    parsed = json.loads(reg.to_json())
    assert parsed["counters"]["a{node=n1}"] == 1
    assert parsed["histograms"]["lat"]["count"] == 1


def test_reset_zeroes_in_place_preserving_identity():
    reg = MetricsRegistry()
    c = reg.counter("c")
    g = reg.gauge("g")
    h = reg.histogram("h")
    c.inc(7)
    g.set(3.0)
    h.observe(1.0)
    reg.trace.emit(0.0, "x")
    reg.reset()
    assert c.value == 0 and g.value == 0.0 and h.count == 0
    assert len(reg.trace) == 0 and reg.trace.emitted == 0
    # machines hold direct references; they must still be live
    assert reg.counter("c") is c
    c.inc()
    assert reg.counter_value("c") == 1


def test_null_registry_is_inert():
    reg = NullRegistry()
    c = reg.counter("anything", label="x")
    c.inc(100)
    reg.gauge("g").set(5.0)
    reg.histogram("h").observe(1.0)
    reg.trace.emit(0.0, "event")
    assert reg.counter_value("anything", label="x") == 0
    assert reg.counter_total("anything") == 0
    assert reg.gauge_value("g") == 0.0
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert len(reg.trace) == 0
    # every accessor hands back the same shared no-op singleton
    assert reg.counter("a") is reg.gauge("b") is reg.histogram("c")


def test_null_twins_answer_every_call_the_real_objects_do():
    """Machines call registry, instrument and trace methods without
    asking whether observability is on: a method added to a real class
    without its no-op twin would crash every uninstrumented run."""
    real = MetricsRegistry()
    null = NullRegistry()
    pairs = [
        (real, null),
        (real.counter("c"), null.counter("c")),
        (real.gauge("g"), null.gauge("g")),
        (real.histogram("h"), null.histogram("h")),
        (real.trace, null.trace),
    ]
    dummy = {"name": "x", "time": 0.0, "indent": None}
    for genuine, twin in pairs:
        for name in dir(genuine):
            if name.startswith("_"):
                continue
            assert hasattr(twin, name), f"{type(twin).__name__} lacks {name}"
            member = getattr(genuine, name)
            if not callable(member):
                continue
            required = [
                dummy.get(p.name, 1.0)
                for p in inspect.signature(member).parameters.values()
                if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
            ]
            getattr(twin, name)(*required)  # must not raise
    assert json.loads(null.to_json()) == null.snapshot()
    assert null.histogram("h").percentile(99.0) is None
    assert null.histogram("h").summary() == {}
