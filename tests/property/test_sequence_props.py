"""Property-based tests for SequenceTracker invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequence import SequenceTracker

seqs = st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=100)


@given(seqs)
def test_missing_is_exactly_unobserved_interior(observed):
    tracker = SequenceTracker()
    for seq in observed:
        tracker.observe_data(seq)
    first, high = observed[0], max(observed)
    expected_missing = set(range(first, high + 1)) - set(observed)
    # Sequences below the baseline are never "missing".
    expected_missing = {s for s in expected_missing if s >= first}
    assert set(tracker.missing) == expected_missing
    assert tracker.highest == high


@given(seqs)
def test_each_sequence_new_at_most_once(observed):
    tracker = SequenceTracker()
    new_count: dict[int, int] = {}
    seen: set[int] = set()
    for seq in observed:
        report = tracker.observe_data(seq)
        if report.is_new:
            new_count[seq] = new_count.get(seq, 0) + 1
        # duplicates accounted exactly: a repeat (or history before the
        # baseline) is never new, any other first sight always is
        assert report.is_new == (seq not in seen and seq >= observed[0])
        seen.add(seq)
    assert all(count == 1 for count in new_count.values())


@given(seqs)
def test_has_matches_observation(observed):
    tracker = SequenceTracker()
    for seq in observed:
        tracker.observe_data(seq)
    for seq in range(1, max(observed) + 2):
        if observed[0] <= seq <= max(observed) and seq in set(observed):
            assert tracker.has(seq)
        elif seq < observed[0] or seq > max(observed):
            assert not tracker.has(seq)


@given(seqs, st.integers(min_value=1, max_value=250))
def test_heartbeat_never_delivers_but_extends(observed, hb_seq):
    tracker = SequenceTracker()
    for seq in observed:
        tracker.observe_data(seq)
    high_before = tracker.highest
    report = tracker.observe_heartbeat(hb_seq)
    assert not report.is_new
    assert tracker.highest == max(high_before, hb_seq)
    if hb_seq > high_before:
        assert set(report.new_gaps) == set(range(high_before + 1, hb_seq + 1))


@given(seqs)
def test_observing_all_gaps_clears_missing(observed):
    tracker = SequenceTracker()
    for seq in observed:
        tracker.observe_data(seq)
    for seq in list(tracker.missing):
        tracker.observe_data(seq)
    assert tracker.missing == frozenset()


@given(seqs, seqs)
def test_abandon_is_idempotent_and_complete(observed, abandoned):
    tracker = SequenceTracker()
    for seq in observed:
        tracker.observe_data(seq)
    tracker.abandon(abandoned)
    tracker.abandon(abandoned)
    assert not (set(abandoned) & set(tracker.missing))
