"""Discrete-event engine tests: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest

from repro import obs
from repro.simnet.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_run_until_stops_and_pins_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    sim.run_until(5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run_until(20.0)
    assert fired == [1, 10]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    handle = sim.schedule(1.5, fired.append, "dropped")
    handle.cancel()
    assert sim.pending == 2 and sim.tombstones == 1
    sim.run()
    assert fired == ["a", "b"]
    assert sim.pending == 0 and sim.tombstones == 0 and sim.processed == 2


def test_cancel_after_firing_is_a_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    sim.run_until(1.5)
    handle.cancel()  # already fired: must not book a tombstone
    assert sim.pending == 1 and sim.tombstones == 0
    sim.run()
    assert fired == ["x", "y"]


def test_start_is_the_only_constructor_parameter():
    """The knobs went with the wheel (DESIGN §6): nothing to tune."""
    with pytest.raises(TypeError):
        Simulator(wheel_slots=4)
    with pytest.raises(TypeError):
        Simulator(0.0, 0.01)


def test_schedule_in_relative():
    sim = Simulator(start=100.0)
    fired = []
    sim.schedule_in(2.5, fired.append, "x")
    sim.run()
    assert sim.now == 102.5 and fired == ["x"]


def test_past_schedule_clamped_to_now():
    sim = Simulator(start=10.0)
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10.0]


def test_events_scheduled_during_run():
    sim = Simulator()

    def chain(n):
        if n > 0:
            sim.schedule_in(1.0, chain, n - 1)

    sim.schedule(0.0, chain, 5)
    sim.run()
    assert sim.now == 5.0
    assert sim.processed == 6


def test_max_events_bound():
    sim = Simulator()

    def forever():
        sim.schedule_in(0.1, forever)

    sim.schedule(0.0, forever)
    executed = sim.run(max_events=50)
    assert executed == 50


def test_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.processed == 7


def test_pending_is_live_count():
    """`pending` counts only events that will still fire."""
    sim = Simulator()
    handles = [sim.schedule(float(i), lambda: None) for i in range(5)]
    assert sim.pending == 5
    handles[0].cancel()
    handles[3].cancel()
    assert sim.pending == 3
    assert sim.tombstones == 2
    sim.run_until(2.5)
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert sim.tombstones == 0


def test_peak_pending_high_water_mark():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    assert sim.peak_pending == 10
    sim.run()
    assert sim.pending == 0
    assert sim.peak_pending == 10  # the mark survives the drain


def test_cancelled_events_never_inflate_peak():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None).cancel()
    live = sim.schedule(1.0, lambda: None)
    assert sim.pending == 1
    assert sim.peak_pending == 1
    live.cancel()
    assert sim.pending == 0


def test_double_cancel_counts_once():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.tombstones == 1
    assert sim.pending == 0


def test_cancel_inside_callback_during_run():
    """A callback cancelling siblings mid-run loses and reorders nothing."""
    sim = Simulator()
    fired = []
    victims = [sim.schedule(2.0 + i * 0.001, fired.append, f"victim{i}") for i in range(8)]

    def reap():
        fired.append("reap")
        for victim in victims:
            victim.cancel()

    sim.schedule(1.0, reap)
    sim.schedule(3.0, fired.append, "survivor")
    sim.run()
    assert fired == ["reap", "survivor"]
    assert sim.pending == 0 and sim.tombstones == 0


def test_far_mid_and_near_events_fire_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(100.0, fired.append, "far")
    sim.schedule(0.02, fired.append, "near")
    sim.schedule(5.0, fired.append, "mid")
    sim.run()
    assert fired == ["near", "mid", "far"]


def test_obs_gauges_reflect_queue_depth():
    with obs.recording() as reg:
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), lambda: None)
        sim.run_until(2.5)
        gauges = reg.snapshot()["gauges"]
        assert gauges["sim.queue_depth"] == 3
        assert gauges["sim.peak_queue_depth"] == 6
        sim.run()
        assert reg.snapshot()["gauges"]["sim.queue_depth"] == 0
