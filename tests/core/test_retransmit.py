"""Retransmission policy tests (§2.3.2 source, §2.2.1 site)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LoggerConfig, StatAckConfig
from repro.core.retransmit import (
    RetransmitDecision,
    SiteRequestTracker,
    SourceRetransmitPolicy,
)


class TestSourcePolicy:
    def test_all_acks_present_means_none(self):
        policy = SourceRetransmitPolicy()
        assert policy.decide(0, 20, 500) is RetransmitDecision.NONE

    def test_paper_500_site_example(self):
        """"with a 500 site configuration, each Designated Acker represents
        25 sites so multicast is warranted if even a single
        acknowledgement is lost."""
        policy = SourceRetransmitPolicy()
        assert policy.decide(1, 20, 500) is RetransmitDecision.MULTICAST

    def test_paper_20_site_example(self):
        """"with a 20 site configuration, it is feasible for each logging
        server to acknowledge" — missing ACKs name the sites: unicast."""
        policy = SourceRetransmitPolicy()
        assert policy.decide(1, 20, 20) is RetransmitDecision.UNICAST

    def test_threshold_boundary(self):
        policy = SourceRetransmitPolicy(StatAckConfig(sites_per_acker_multicast=2.0))
        assert policy.decide(1, 10, 20) is RetransmitDecision.MULTICAST  # exactly 2/acker
        assert policy.decide(1, 10, 19) is RetransmitDecision.UNICAST

    def test_no_expected_ackers_is_none(self):
        policy = SourceRetransmitPolicy()
        assert policy.decide(0, 0, 500) is RetransmitDecision.NONE
        assert policy.decide(3, 0, 500) is RetransmitDecision.NONE


class TestSiteTracker:
    def test_threshold_triggers_once(self):
        tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=3))
        assert not tracker.record(5, "rx1", now=0.0)
        assert not tracker.record(5, "rx2", now=0.01)
        assert tracker.record(5, "rx3", now=0.02)  # third distinct: fire
        assert not tracker.record(5, "rx4", now=0.03)  # already fired

    def test_a_fired_window_stops_collecting_requesters(self):
        """The re-multicast answered the whole site: later requests in its
        window are not recorded, and still do not fire again."""
        tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=2))
        tracker.record(5, "rx1", now=0.0)
        assert tracker.record(5, "rx2", now=0.01)
        for i, late in enumerate(("rx3", "rx4", "rx1")):
            assert not tracker.record(5, late, now=0.02 + 0.01 * i)
        assert tracker.requesters(5) == frozenset({"rx1", "rx2"})

    def test_duplicate_requester_not_counted_twice(self):
        tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=2))
        assert not tracker.record(5, "rx1", now=0.0)
        assert not tracker.record(5, "rx1", now=0.01)
        assert tracker.record(5, "rx2", now=0.02)

    def test_self_lost_fires_immediately(self):
        """If the logger itself lost the packet, the whole site did."""
        tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=3))
        assert tracker.record(5, "rx1", now=0.0, self_lost=True)

    def test_window_resets(self):
        tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=2), window=1.0)
        assert not tracker.record(5, "rx1", now=0.0)
        # Request far outside the window starts a fresh count.
        assert not tracker.record(5, "rx2", now=5.0)
        assert tracker.record(5, "rx3", now=5.1)

    def test_requesters_view(self):
        tracker = SiteRequestTracker()
        tracker.record(9, "a", 0.0)
        tracker.record(9, "b", 0.1)
        assert tracker.requesters(9) == frozenset({"a", "b"})
        assert tracker.requesters(10) == frozenset()

    def test_sweep_clears_stale_windows(self):
        tracker = SiteRequestTracker(window=1.0)
        tracker.record(9, "a", 0.0)
        tracker.sweep(10.0)
        assert tracker.requesters(9) == frozenset()

    def test_record_sweep_keeps_a_window_exactly_one_window_old(self):
        """The 65th sequence makes record() sweep; a window that started
        exactly one window ago is still open (``record`` keeps counting
        it), so the sweep must keep it too."""
        tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=2), window=1.0)
        for seq in range(64):
            assert not tracker.record(seq, "a", 0.0)
        assert not tracker.record(64, "a", 1.0)
        assert tracker.record(0, "b", 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        threshold=st.integers(min_value=1, max_value=4),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=99),  # seq
                st.sampled_from(["a", "b", "c", "d"]),  # requester
                # Binary fractions: "exactly one window later" is exact.
                st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 2.5]),  # time step
                st.booleans(),  # self_lost
            ),
            max_size=600,
        ),
    )
    def test_record_sweeps_change_no_verdict(self, threshold, steps):
        """record()'s own sweeps drop only windows record would restart:
        with ``now`` monotone, a swept tracker answers like one that never
        sweeps."""
        config = LoggerConfig(remulticast_threshold=threshold)
        swept, unswept = SiteRequestTracker(config), SiteRequestTracker(config)
        unswept.sweep = lambda now: None
        now = 0.0
        for seq, requester, dt, self_lost in steps:
            now += dt
            assert swept.record(seq, requester, now, self_lost) == unswept.record(
                seq, requester, now, self_lost)
        assert len(swept._state) <= len(unswept._state)

    def test_independent_sequences(self):
        tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=2))
        assert not tracker.record(1, "a", 0.0)
        assert not tracker.record(2, "a", 0.0)
        assert tracker.record(1, "b", 0.1)
        assert tracker.record(2, "b", 0.1)
