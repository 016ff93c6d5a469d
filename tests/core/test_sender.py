"""LbrmSender unit tests: sequencing, heartbeats, buffer release, failover."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.actions import Notify, SendMulticast, SendUnicast
from repro.core.config import LbrmConfig, ReplicationConfig
from repro.core.events import PrimaryFailover, SourceBufferReleased
from repro.core.packets import (
    DataPacket,
    HeartbeatPacket,
    LogAckPacket,
    NackPacket,
    PrimaryInfoPacket,
    PrimaryQueryPacket,
    PromotePacket,
    ReplAckPacket,
    ReplStatusQueryPacket,
    ReplUpdatePacket,
    RetransPacket,
)
from repro.core.sender import LbrmSender


def multicasts(actions):
    return [a for a in actions if isinstance(a, SendMulticast)]


def unicasts(actions):
    return [a for a in actions if isinstance(a, SendUnicast)]


def make_sender(**kwargs) -> LbrmSender:
    return LbrmSender("g", LbrmConfig(), primary="primary", **kwargs)


def test_send_assigns_increasing_sequence():
    s = make_sender()
    a1 = s.send(b"one", 0.0)
    a2 = s.send(b"two", 1.0)
    assert multicasts(a1)[0].packet.seq == 1
    assert multicasts(a2)[0].packet.seq == 2
    assert s.seq == 2


def test_data_retained_until_log_ack():
    s = make_sender()
    s.send(b"one", 0.0)
    assert s.unacked == 1
    actions = s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=0), "primary", 0.01)
    # No replicas configured: the primary's own ACK releases.
    assert s.unacked == 0
    assert s.released_up_to == 1
    released = [a for a in actions if isinstance(a, Notify) and isinstance(a.event, SourceBufferReleased)]
    assert released and released[0].event.seq == 1


def test_with_replicas_release_waits_for_replica_seq():
    s = make_sender(replicas=("r0",))
    s.send(b"one", 0.0)
    s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=0), "primary", 0.01)
    assert s.unacked == 1  # replica hasn't confirmed
    s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=1), "primary", 0.02)
    assert s.unacked == 0


def test_log_ack_from_stranger_ignored():
    s = make_sender()
    s.send(b"one", 0.0)
    s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=1), "impostor", 0.01)
    assert s.unacked == 1


def test_heartbeat_fires_after_h_min():
    s = make_sender()
    s.send(b"one", 0.0)
    assert s.next_wakeup() == pytest.approx(0.25)
    actions = s.poll(0.25)
    beats = [a for a in multicasts(actions) if isinstance(a.packet, HeartbeatPacket)]
    assert len(beats) == 1
    assert beats[0].packet.seq == 1
    assert beats[0].packet.hb_index == 1


def test_heartbeat_index_increments_and_resets():
    s = make_sender()
    s.send(b"one", 0.0)
    s.poll(0.25)
    actions = s.poll(0.75)
    hb = multicasts(actions)[0].packet
    assert hb.hb_index == 2
    s.send(b"two", 1.0)
    actions = s.poll(1.25)
    hb = multicasts(actions)[0].packet
    assert hb.hb_index == 1  # reset by data


def test_primary_query_answered():
    s = make_sender()
    actions = s.handle(PrimaryQueryPacket(group="g"), "rx1", 0.0)
    replies = unicasts(actions)
    assert len(replies) == 1
    assert isinstance(replies[0].packet, PrimaryInfoPacket)
    assert replies[0].packet.primary_addr == "primary"
    assert replies[0].dest == "rx1"


def status_queries(actions):
    return [a for a in unicasts(actions) if isinstance(a.packet, ReplStatusQueryPacket)]


def promotions(actions):
    return [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]


def handover_pushes(actions):
    return [(a.dest, a.packet.seq) for a in unicasts(actions) if isinstance(a.packet, ReplUpdatePacket)]


class TestFailover:
    """The failover phase is read off the wire: HEALTHY answers a stale
    primary with replica status queries, QUERYING turns the votes it
    collects into a promotion, and HANDOVER re-pushes the buffered tail
    to the new primary until it confirms."""

    RETRY = ReplicationConfig().update_retry

    def make(self):
        cfg = LbrmConfig(replication=ReplicationConfig(primary_timeout=1.0, failover_wait=0.2))
        s = LbrmSender("g", cfg, primary="primary", replicas=("r0", "r1"))
        s.start(0.0)
        return s

    def test_healthy_when_acks_flow(self):
        s = self.make()
        s.send(b"x", 0.0)
        s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=1), "primary", 0.1)
        s.poll(1.0)
        assert status_queries(s.poll(2.5)) == []  # nothing outstanding: no failover starts

    def test_timeout_queries_replicas(self):
        s = self.make()
        s.send(b"x", 0.0)
        actions = s.poll(2.5)  # primary never acked, check fires past 1.0s age
        assert {q.dest for q in status_queries(actions)} == {"r0", "r1"}
        # Querying: a vote now is counted when the window closes.
        s.handle(ReplAckPacket(group="g", cum_seq=1), "r1", 2.6)
        assert [p.dest for p in promotions(s.poll(2.8))] == ["r1"]

    def test_most_up_to_date_replica_promoted(self):
        s = self.make()
        s.send(b"x", 0.0)
        s.send(b"y", 0.1)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=1), "r1", 2.6)
        s.handle(ReplAckPacket(group="g", cum_seq=2**64 - 1), "r0", 2.6)  # r0 has nothing
        actions = s.poll(2.8)  # failover_wait elapsed
        promotes = [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]
        assert len(promotes) == 1
        assert promotes[0].dest == "r1"
        assert promotes[0].packet.from_seq == 2
        assert s.primary == "r1"
        events = [a.event for a in actions if isinstance(a, Notify) and isinstance(a.event, PrimaryFailover)]
        assert events and events[0].new_primary == "r1"
        # Handover pushes the buffered tail (seq 2).
        updates = [a for a in unicasts(actions) if isinstance(a.packet, ReplUpdatePacket)]
        assert [u.packet.seq for u in updates] == [2]

    def test_handover_completion_releases(self):
        def promoted():
            s = self.make()
            s.send(b"x", 0.0)
            s.poll(2.5)
            s.handle(ReplAckPacket(group="g", cum_seq=2**64 - 1), "r0", 2.6)
            assert handover_pushes(s.poll(2.8)) == [("r0", 1)]
            return s

        waiting, s = promoted(), promoted()
        # Handing over: the tail is re-pushed until the new primary confirms ...
        assert handover_pushes(waiting.poll(2.8 + self.RETRY)) == [("r0", 1)]
        s.handle(ReplAckPacket(group="g", cum_seq=1), s.primary, 3.0)
        # ... and once it has, never again.
        assert handover_pushes(s.poll(2.8 + self.RETRY)) == []
        assert s.stats["failovers"] == 1

    def test_no_votes_aborts_failover(self):
        s = self.make()
        s.send(b"x", 0.0)
        s.poll(2.5)
        actions = s.poll(2.8)  # vote window closes, nobody answered
        assert s.primary == "primary"  # unchanged; will retry later
        assert promotions(actions) == []
        # Healthy again: the next primary check queries the replicas anew.
        assert {q.dest for q in status_queries(s.poll(4.0))} == {"r0", "r1"}

    def test_no_replicas_never_fails_over(self):
        cfg = LbrmConfig(replication=ReplicationConfig(primary_timeout=1.0))
        s = LbrmSender("g", cfg, primary="primary")
        s.start(0.0)
        s.send(b"x", 0.0)
        assert status_queries(s.poll(5.0)) == []
        assert s.primary == "primary"

    def test_vote_order_does_not_matter(self):
        """A stale replica answering first must not win the vote."""
        s = self.make()
        s.send(b"x", 0.0)
        s.send(b"y", 0.1)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=2**64 - 1), "r0", 2.55)  # stale, first
        s.handle(ReplAckPacket(group="g", cum_seq=2), "r1", 2.6)
        actions = s.poll(2.8)
        promotes = [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]
        assert promotes[0].dest == "r1"
        assert promotes[0].packet.from_seq == 3
        # r1 already holds everything: no tail to push, handover is instant.
        assert handover_pushes(actions) == []
        assert handover_pushes(s.poll(2.8 + self.RETRY)) == []

    def test_equal_prefixes_promote_lowest_token(self):
        """Regression: the old `max()` over the vote dict promoted whoever
        answered *first* on an exact tie.  Equal committed prefixes must
        deterministically elect the lowest node id."""
        s = self.make()
        s.send(b"x", 0.0)
        s.send(b"y", 0.1)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=2), "r1", 2.55)  # r1 answers first
        s.handle(ReplAckPacket(group="g", cum_seq=2), "r0", 2.6)
        actions = s.poll(2.8)
        promotes = [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]
        assert promotes[0].dest == "r0"
        assert s.primary == "r0"

    def test_higher_commit_breaks_equal_cum(self):
        """Between equal received prefixes, the higher *committed* prefix
        wins — promotion prefers commitment over mere receipt."""
        s = self.make()
        s.send(b"x", 0.0)
        s.send(b"y", 0.1)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=2, commit_seq=1), "r0", 2.55)
        s.handle(ReplAckPacket(group="g", cum_seq=2, commit_seq=2), "r1", 2.6)
        actions = s.poll(2.8)
        promotes = [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]
        assert promotes[0].dest == "r1"

    def test_promotion_advances_epoch_past_every_vote(self):
        s = self.make()
        s.send(b"x", 0.0)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=1, log_epoch=3), "r0", 2.6)
        s.handle(ReplAckPacket(group="g", cum_seq=1, log_epoch=1), "r1", 2.6)
        actions = s.poll(2.8)
        promotes = [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]
        assert promotes[0].packet.log_epoch == 4
        assert s.log_epoch == 4
        events = [a.event for a in actions
                  if isinstance(a, Notify) and isinstance(a.event, PrimaryFailover)]
        assert events[0].log_epoch == 4
        assert events[0].high_seq == 1

    def test_promote_packet_names_surviving_members(self):
        s = self.make()
        s.send(b"x", 0.0)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=1), "r0", 2.6)
        s.handle(ReplAckPacket(group="g", cum_seq=0), "r1", 2.6)
        actions = s.poll(2.8)
        promotes = [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]
        assert promotes[0].dest == "r0"
        # r1 survives as a follower the new primary must adopt.
        assert promotes[0].packet.members == "r1"

    def test_stale_epoch_log_ack_never_releases(self):
        """A revived pre-failover primary acking in its old term must not
        move the release point, even if it spoofs the current address."""
        s = self.make()
        s.send(b"x", 0.0)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=1), "r0", 2.6)
        s.poll(2.8)
        assert s.primary == "r0" and s.log_epoch == 2
        s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=1, log_epoch=1), "r0", 3.0)
        assert s.released_up_to == 0
        s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=1, log_epoch=2), "r0", 3.1)
        assert s.released_up_to == 1

    def test_vote_from_non_replica_ignored(self):
        s = self.make()
        s.send(b"x", 0.0)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=5), "impostor", 2.6)
        assert promotions(s.poll(2.8)) == []  # no vote counted: the round aborts
        assert s.primary == "primary"
        assert {q.dest for q in status_queries(s.poll(4.0))} == {"r0", "r1"}

    def test_aborted_vote_retries_and_eventually_promotes(self):
        """Simultaneous failure: primary and both replicas dark at once.
        The vote aborts, but the watchdog keeps retrying; a replica that
        comes back wins the next round."""
        s = self.make()
        s.send(b"x", 0.0)
        s.poll(2.5)  # QUERYING
        assert promotions(s.poll(2.8)) == []  # nobody answered: abort back to HEALTHY
        actions = s.poll(4.0)  # data still outstanding: the healthy check re-fires
        queries = [a for a in unicasts(actions) if isinstance(a.packet, ReplStatusQueryPacket)]
        assert {q.dest for q in queries} == {"r0", "r1"}
        s.handle(ReplAckPacket(group="g", cum_seq=1), "r1", 4.1)
        actions = s.poll(4.3)
        promotes = [a for a in unicasts(actions) if isinstance(a.packet, PromotePacket)]
        assert promotes and promotes[0].dest == "r1"
        assert s.primary == "r1"

    def test_promoted_replica_inherits_backfill_rights(self):
        s = self.make()
        s.send(b"x", 0.0)
        s.poll(2.5)
        s.handle(ReplAckPacket(group="g", cum_seq=1), "r1", 2.6)
        s.poll(2.8)
        assert s.primary == "r1"
        # The demoted primary may no longer tap the buffer; the new one may.
        assert s.handle(NackPacket(group="g", seqs=(1,)), "primary", 3.0) == []
        actions = s.handle(NackPacket(group="g", seqs=(1,)), "r1", 3.1)
        assert [a.packet.seq for a in unicasts(actions)] == [1]


class TestPrimaryBackfill:
    """§2.2.3: the source is the primary log's upstream.  A NACK from the
    log the source trusts is served from the reliability buffer (or the
    short-horizon cache) — without this a primary that misses a multicast
    packet could wedge the release point forever."""

    def test_nack_from_primary_served_from_buffer(self):
        s = make_sender()
        s.send(b"one", 0.0)
        s.send(b"two", 0.1)
        actions = s.handle(NackPacket(group="g", seqs=(1, 2)), "primary", 0.5)
        retrans = [a for a in unicasts(actions) if isinstance(a.packet, RetransPacket)]
        assert [(r.dest, r.packet.seq, r.packet.payload) for r in retrans] == [
            ("primary", 1, b"one"),
            ("primary", 2, b"two"),
        ]
        assert s.stats["log_backfills"] == 2

    def test_nack_from_stranger_ignored(self):
        s = make_sender()
        s.send(b"one", 0.0)
        assert s.handle(NackPacket(group="g", seqs=(1,)), "site1-logger", 0.5) == []
        assert s.stats["log_backfills"] == 0

    def test_unheld_seq_skipped(self):
        s = make_sender()
        s.send(b"one", 0.0)
        actions = s.handle(NackPacket(group="g", seqs=(1, 99)), "primary", 0.5)
        assert [a.packet.seq for a in unicasts(actions)] == [1]

    def test_released_seq_served_from_recent_cache(self):
        # The short-horizon cache only exists with statack enabled.
        s = make_sender(enable_statack=True)
        s.send(b"one", 0.0)
        s.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=0), "primary", 0.1)
        assert s.unacked == 0  # released from the reliability buffer...
        actions = s.handle(NackPacket(group="g", seqs=(1,)), "primary", 0.5)
        assert [a.packet.seq for a in unicasts(actions)] == [1]  # ...yet still served


def test_no_primary_means_no_retention():
    """Co-located logging: the node's own LogServer holds the data."""
    s = LbrmSender("g", LbrmConfig(), primary=None)
    s.send(b"x", 0.0)
    assert s.unacked == 0


_BUFFER_STEPS = [
    ("send", b"one", 0.0),
    ("send", b"two", 0.1),
    ("send", b"three", 0.2),
    ("handle", LogAckPacket(group="g", primary_seq=2, replica_seq=0), "primary", 0.3),
    ("handle", LogAckPacket(group="g", primary_seq=2, replica_seq=0), "primary", 0.35),  # no news
    ("poll", 1.0),
    ("send", b"four", 1.1),
    ("handle", LogAckPacket(group="g", primary_seq=4, replica_seq=0), "primary", 1.2),
]


def _feed(sender: LbrmSender, each=lambda: None):
    out = []
    for step in _BUFFER_STEPS:
        if step[0] == "send":
            out.append(sender.send(*step[1:]))
        elif step[0] == "poll":
            out.append(sender.poll(step[1]))
        else:
            out.append(sender.handle(*step[1:]))
        each()
    return out, dict(sender.stats)


def test_recording_changes_no_action_and_its_gauges_follow_the_buffer():
    """A sender built under a recording registry behaves exactly like one
    built without: same actions, same stats.  Only the recorded one has
    buffer gauges, and they follow the retained count and the released
    mark through every send and release."""
    plain = make_sender()
    assert plain._gauges is None
    with obs.recording() as reg:
        recorded = make_sender()
        marks = []

        def gauges_follow_the_buffer():
            gauges = reg.snapshot()["gauges"]
            assert gauges["sender.unacked{node=source}"] == recorded.unacked
            assert gauges["sender.released_up_to{node=source}"] == recorded.released_up_to
            marks.append((recorded.unacked, recorded.released_up_to))

        outcome = _feed(recorded, gauges_follow_the_buffer)
    assert _feed(plain) == outcome
    assert (3, 0) in marks and marks[-1] == (0, 4)
