"""Unit tests for the event-trace ring buffer."""

from __future__ import annotations

import pytest

from repro.obs.trace import NULL_TRACE, EventTrace, TraceEvent


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventTrace(capacity=0)


def test_emit_and_read_back_in_order():
    trace = EventTrace(capacity=8)
    trace.emit(1.0, "a", seq=1)
    trace.emit(2.0, "b", seq=2)
    events = trace.events()
    assert [e.name for e in events] == ["a", "b"]
    assert [e.time for e in events] == [1.0, 2.0]


def test_fields_are_sorted_for_determinism():
    trace = EventTrace()
    trace.emit(0.0, "e", zebra=1, alpha=2)
    (event,) = trace.events()
    assert event.fields == (("alpha", 2), ("zebra", 1))
    assert event.as_dict() == {"time": 0.0, "name": "e", "alpha": 2, "zebra": 1}


def test_ring_evicts_oldest_and_counts_dropped():
    trace = EventTrace(capacity=3)
    for i in range(5):
        trace.emit(float(i), "e", i=i)
    assert len(trace) == 3
    assert trace.emitted == 5
    assert trace.dropped == 2
    assert [dict(e.fields)["i"] for e in trace.events()] == [2, 3, 4]


def test_filter_by_name():
    trace = EventTrace()
    trace.emit(0.0, "nack", seq=1)
    trace.emit(0.1, "data", seq=2)
    trace.emit(0.2, "nack", seq=3)
    assert len(trace.events("nack")) == 2
    assert len(trace.events("data")) == 1
    assert trace.events("nothing") == ()


def test_reset_clears_everything():
    trace = EventTrace(capacity=2)
    for i in range(4):
        trace.emit(float(i), "e")
    trace.reset()
    assert len(trace) == 0
    assert trace.emitted == 0
    assert trace.dropped == 0


def test_identical_histories_compare_equal():
    a, b = EventTrace(), EventTrace()
    for t in (a, b):
        t.emit(0.5, "loss", seq=3)
        t.emit(0.6, "nack", seq=3, logger="site1")
    assert a.events() == b.events()


def test_null_trace_is_inert():
    NULL_TRACE.emit(0.0, "anything", x=1)
    assert len(NULL_TRACE) == 0
    assert NULL_TRACE.events() == ()
    assert NULL_TRACE.dropped == 0
    assert list(iter(NULL_TRACE)) == []


def test_trace_event_is_frozen():
    event = TraceEvent(time=0.0, name="e")
    with pytest.raises(AttributeError):
        event.name = "other"
