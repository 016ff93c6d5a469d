"""TimerSet and ProtocolMachine base-class tests."""

from __future__ import annotations

from repro.core.machine import ProtocolMachine, TimerSet


def test_set_and_pop_due_in_deadline_order():
    timers = TimerSet()
    timers.set("b", 2.0)
    timers.set("a", 1.0)
    timers.set("c", 3.0)
    assert timers.pop_due(2.5) == ["a", "b"]
    # Popped timers are gone; the nothing-due result is any empty
    # sequence (a shared tuple on the fast path).
    assert list(timers.pop_due(2.5)) == []
    assert "c" in timers


def test_set_replaces_deadline():
    timers = TimerSet()
    timers.set("x", 5.0)
    timers.set("x", 1.0)
    assert timers.next_deadline() == 1.0
    assert len(timers) == 1
    timers.set("x", 3.0)  # re-armed later: the earlier deadline is gone
    assert timers.next_deadline() == 3.0
    assert list(timers.pop_due(2.0)) == []
    assert timers.pop_due(3.0) == ["x"]


def test_cancel():
    timers = TimerSet()
    timers.set("x", 1.0)
    timers.cancel("x")
    timers.cancel("never-set")  # no-op
    assert list(timers.pop_due(10.0)) == []


def test_next_deadline():
    timers = TimerSet()
    assert timers.next_deadline() is None
    timers.set("a", 7.0)
    timers.set("b", 3.0)
    assert timers.next_deadline() == 3.0


def test_exact_deadline_fires():
    timers = TimerSet()
    timers.set("a", 1.0)
    assert timers.pop_due(1.0) == ["a"]


def test_machine_next_wakeup_reads_timers():
    machine = ProtocolMachine()
    assert machine.next_wakeup() is None
    machine.timers.set("t", 4.0)
    assert machine.next_wakeup() == 4.0
