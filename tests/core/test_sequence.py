"""Sequence tracker unit tests: gap detection, heartbeat semantics."""

from __future__ import annotations

import pytest

from repro.core.sequence import SequenceTracker


def test_first_observation_sets_baseline():
    t = SequenceTracker()
    report = t.observe_data(5)
    assert report.is_new
    assert report.new_gaps == ()
    assert t.highest == 5
    assert t.missing == frozenset()


def test_in_order_stream_has_no_gaps():
    t = SequenceTracker()
    for seq in range(1, 20):
        report = t.observe_data(seq)
        assert report.is_new
        assert report.new_gaps == ()
    assert t.missing == frozenset()


def test_gap_detected_on_jump():
    t = SequenceTracker()
    t.observe_data(1)
    report = t.observe_data(5)
    assert report.new_gaps == (2, 3, 4)
    assert t.missing == frozenset({2, 3, 4})


def test_retransmission_fills_gap():
    t = SequenceTracker()
    t.observe_data(1)
    t.observe_data(4)
    report = t.observe_data(2)
    assert report.is_new and report.filled_gap
    assert t.missing == frozenset({3})


def test_duplicate_detected_and_counted():
    t = SequenceTracker()
    t.observe_data(1)
    report = t.observe_data(1)
    assert not report.is_new and not report.filled_gap and report.new_gaps == ()
    assert t.has(1) and t.highest == 1 and t.missing == frozenset()


def test_recovered_then_duplicated():
    t = SequenceTracker()
    t.observe_data(1)
    t.observe_data(3)
    assert t.observe_data(2).filled_gap
    report = t.observe_data(2)
    assert not report.is_new and not report.filled_gap
    assert t.has(2) and t.missing == frozenset()


def test_heartbeat_reveals_gap():
    """The canonical single-loss case: data lost, first heartbeat exposes it."""
    t = SequenceTracker()
    t.observe_data(1)
    report = t.observe_heartbeat(2)  # data 2 was dropped
    assert not report.is_new
    assert report.new_gaps == (2,)
    assert t.missing == frozenset({2})


def test_heartbeat_repeat_is_silent():
    t = SequenceTracker()
    t.observe_data(3)
    report = t.observe_heartbeat(3)
    assert report.new_gaps == ()


def test_heartbeat_zero_before_first_data():
    t = SequenceTracker()
    report = t.observe_heartbeat(0)
    assert report.new_gaps == ()
    assert not t.started


def test_heartbeat_midstream_join_marks_current_missing():
    """Joining during idle: the heartbeat's seq itself was never received."""
    t = SequenceTracker()
    report = t.observe_heartbeat(7)
    assert report.new_gaps == (7,)
    assert t.missing == frozenset({7})
    # The retransmission then fills it.
    assert t.observe_data(7).filled_gap


def test_abandon_stops_tracking():
    t = SequenceTracker()
    t.observe_data(1)
    t.observe_data(5)
    t.abandon((2, 3))
    assert t.missing == frozenset({4})


def test_abandoned_sequences_are_not_held():
    """Giving up on recovery must not read as 'received' (§2: the
    receiver can estimate how much information it has lost)."""
    t = SequenceTracker()
    t.observe_data(1)
    t.observe_data(4)
    t.abandon((2,))
    assert not t.has(2)
    assert t.missing == frozenset({3})  # no longer recovered, still not held


def test_late_arrival_after_abandon_is_fresh():
    t = SequenceTracker()
    t.observe_data(1)
    t.observe_data(4)
    t.abandon((2,))
    report = t.observe_data(2)
    assert report.is_new and report.filled_gap
    assert t.has(2)
    assert not t.observe_data(2).is_new  # held now: a second copy is a duplicate


def test_abandon_of_never_missing_seq_is_noop():
    t = SequenceTracker()
    t.observe_data(1)
    t.abandon((1, 99))
    assert t.has(1)
    t.observe_data(99)  # 99 was never missing, so abandoning it was a no-op
    assert t.has(99)


def test_has_reflects_holdings():
    t = SequenceTracker()
    t.observe_data(2)
    t.observe_data(5)
    assert t.has(2) and t.has(5)
    assert not t.has(3)
    assert not t.has(1)  # before baseline
    assert not t.has(6)  # beyond highest


def test_rejects_nonpositive_data_seq():
    t = SequenceTracker()
    with pytest.raises(ValueError):
        t.observe_data(0)
    with pytest.raises(ValueError):
        t.observe_heartbeat(-1)


def test_large_gap():
    t = SequenceTracker()
    t.observe_data(1)
    report = t.observe_data(1001)
    assert len(report.new_gaps) == 999
    assert len(t.missing) == 999
