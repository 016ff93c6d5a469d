"""ReplicationManager unit tests (§2.2.3 watermarks and retries)."""

from __future__ import annotations

import pytest

from repro.core.actions import SendUnicast
from repro.core.config import ReplicationConfig
from repro.core.packets import ReplUpdatePacket
from repro.core.replication import ReplicationManager


def updates(actions):
    return [a for a in actions if isinstance(a, SendUnicast) and isinstance(a.packet, ReplUpdatePacket)]


def test_replicate_sends_to_all_replicas():
    mgr = ReplicationManager("g", ("r0", "r1", "r2"))
    actions = mgr.replicate(1, b"a", 0.0)
    assert {u.dest for u in updates(actions)} == {"r0", "r1", "r2"}
    assert mgr.stats["updates_sent"] == 3


def test_replica_seq_with_min_one():
    """The commit point (the replica_seq a log ACK reports) = the most
    up-to-date replica's cumulative ACK."""
    mgr = ReplicationManager("g", ("r0", "r1"))
    mgr.replicate(1, b"a", 0.0)
    mgr.replicate(2, b"b", 0.1)
    assert mgr.commit_seq == 0
    assert mgr.on_ack("r0", 2, 0.2)  # grew
    assert mgr.commit_seq == 2  # one replica suffices by default


def test_replica_seq_with_min_two():
    """min_replicas_acked=2: the second-most up-to-date replica governs
    ("the maximum sequential acknowledgement from the second-most
    up-to-date replica, and so forth")."""
    cfg = ReplicationConfig(min_replicas_acked=2)
    mgr = ReplicationManager("g", ("r0", "r1", "r2"), cfg)
    mgr.replicate(1, b"a", 0.0)
    mgr.on_ack("r0", 1, 0.1)
    assert mgr.commit_seq == 0  # only one replica has it
    mgr.on_ack("r1", 1, 0.2)
    assert mgr.commit_seq == 1


def test_ack_from_unknown_replica_ignored():
    mgr = ReplicationManager("g", ("r0",))
    assert not mgr.on_ack("stranger", 5, 0.0)
    assert mgr.commit_seq == 0


def test_retry_unacked_updates():
    cfg = ReplicationConfig(update_retry=0.5)
    mgr = ReplicationManager("g", ("r0",), cfg)
    mgr.replicate(1, b"a", 0.0)
    actions = mgr.poll(0.6)
    sent = updates(actions)
    assert sent and sent[0].packet.seq == 1
    assert mgr.stats["update_retries"] == 1


def test_ack_cancels_retries():
    cfg = ReplicationConfig(update_retry=0.5)
    mgr = ReplicationManager("g", ("r0",), cfg)
    mgr.replicate(1, b"a", 0.0)
    mgr.on_ack("r0", 1, 0.1)
    assert mgr.poll(0.6) == []
    assert mgr.next_wakeup() is None


def test_retry_cap_drops_entry():
    cfg = ReplicationConfig(update_retry=0.1, max_update_retries=2)
    mgr = ReplicationManager("g", ("r0",), cfg)
    mgr.replicate(1, b"a", 0.0)
    assert updates(mgr.poll(0.15))  # retry 1
    assert updates(mgr.poll(0.30))  # retry 2
    assert not updates(mgr.poll(0.45))  # capped: replica presumed dead


def test_no_replicas_is_inert():
    mgr = ReplicationManager("g", ())
    assert mgr.replicate(1, b"a", 0.0) == []
    assert mgr.commit_seq == 0
    assert mgr.next_wakeup() is None


def test_acked_by():
    """A follower's cumulative ACK is its backfill start and, alone, the
    commit point."""
    mgr = ReplicationManager("g", ("r0",))
    assert mgr.missing_for("r0", 4) == [1, 2, 3, 4] and mgr.commit_seq == 0
    mgr.on_ack("r0", 3, 0.0)
    assert mgr.missing_for("r0", 4) == [4] and mgr.commit_seq == 3


def test_stale_ack_does_not_regress():
    mgr = ReplicationManager("g", ("r0",))
    mgr.on_ack("r0", 5, 0.0)
    mgr.on_ack("r0", 2, 0.1)  # reordered, stale
    assert mgr.missing_for("r0", 6) == [6] and mgr.commit_seq == 5


# -- commit-point membership & terms (DESIGN.md §10) ----------------------


def test_updates_carry_term_and_commit_point():
    mgr = ReplicationManager("g", ("r0", "r1"), epoch=3)
    mgr.on_ack("r0", 1, 0.0, epoch=3)
    actions = mgr.replicate(2, b"b", 0.1)
    for u in updates(actions):
        assert u.packet.log_epoch == 3
        assert u.packet.commit_seq == 1  # min_replicas_acked=1: r0's prefix


def test_stale_epoch_ack_is_discarded():
    mgr = ReplicationManager("g", ("r0",), epoch=3)
    assert not mgr.on_ack("r0", 4, 0.0, epoch=2)
    assert mgr.commit_seq == 0
    assert mgr.stats["stale_epoch_acks"] == 1
    # epoch 0 = legacy/unversioned follower: always accepted
    assert mgr.on_ack("r0", 4, 0.1, epoch=0)
    assert mgr.commit_seq == 4


def test_adopt_adds_member_counting_as_empty():
    cfg = ReplicationConfig(min_replicas_acked=1)
    mgr = ReplicationManager("g", ("r0",), cfg, epoch=2)
    mgr.on_ack("r0", 3, 0.0, epoch=2)
    assert mgr.adopt("r1", 0.1)
    assert not mgr.adopt("r1", 0.2)  # idempotent
    assert set(mgr.members) == {"r0", "r1"}
    assert mgr.missing_for("r1", 3) == [1, 2, 3]  # holds nothing yet
    assert mgr.commit_seq == 3  # m=1: the newcomer doesn't drag it down
    assert mgr.stats["members_adopted"] == 1


def test_backfill_is_batched_and_acks_advance_window():
    mgr = ReplicationManager("g", (), epoch=2)
    batch = mgr.BACKFILL_BATCH
    mgr.adopt("late", 0.0)
    gap = mgr.missing_for("late", 200)
    assert len(gap) == batch
    assert gap[0] == 1
    mgr.on_ack("late", batch, 0.1, epoch=2)
    nxt = mgr.missing_for("late", 200)
    assert nxt[0] == batch + 1


def test_replicate_to_skips_outstanding_entries():
    mgr = ReplicationManager("g", ("r0",), epoch=2)
    first = mgr.replicate_to("r0", 1, b"a", 0.0)
    assert updates(first) and mgr.stats["backfills"] == 1
    again = mgr.replicate_to("r0", 1, b"a", 0.1)
    assert updates(again) == []  # already in flight, pacing holds


# -- re-adoption after a follower restart ---------------------------------


def test_readopt_resets_stale_progress():
    """Re-adopting a member that carries progress must start it fresh:
    the old watermark belongs to a previous incarnation and would both
    inflate the commit point and starve the backfill."""
    mgr = ReplicationManager("g", ("r0",), epoch=2)
    mgr.replicate(1, b"a", 0.0)
    mgr.on_ack("r0", 1, 0.1, epoch=2)
    assert mgr.commit_seq == 1
    assert not mgr.adopt("r0", 0.2)  # not new, but reset
    assert mgr.commit_seq == 0
    assert mgr.stats["members_readopted"] == 1
    assert mgr.missing_for("r0", 1) == [1]  # backfill restarts from 1


def test_readopt_cancels_pending_retries():
    cfg = ReplicationConfig(update_retry=0.5)
    mgr = ReplicationManager("g", ("r0",), cfg, epoch=2)
    mgr.replicate(1, b"a", 0.0)  # outstanding, retry armed
    assert not mgr.adopt("r0", 0.1)
    assert mgr.stats["members_readopted"] == 1
    # The stale entry's retry died with the old incarnation's state.
    assert updates(mgr.poll(0.6)) == []
    assert mgr.next_wakeup() is None


def test_readopt_without_progress_is_inert():
    mgr = ReplicationManager("g", (), epoch=2)
    assert mgr.adopt("r0", 0.0)
    assert not mgr.adopt("r0", 0.1)  # no progress yet: plain idempotence
    assert mgr.stats["members_readopted"] == 0


def test_note_regression_detects_restarted_follower():
    """A cumulative ACK strictly below the watermark = the follower lost
    its log; the manager must stop counting the vanished prefix."""
    mgr = ReplicationManager("g", ("r0",), epoch=2)
    mgr.replicate(1, b"a", 0.0)
    mgr.replicate(2, b"b", 0.1)
    mgr.on_ack("r0", 2, 0.2, epoch=2)
    assert mgr.commit_seq == 2
    assert mgr.note_regression("r0", 0, 0.3, epoch=2)
    assert mgr.commit_seq == 0
    assert mgr.missing_for("r0", 2) == [1, 2]  # nothing in flight, nothing held
    assert not mgr.adopt("r0", 0.3)  # a fresh record: re-adopting it is inert
    assert mgr.stats["members_readopted"] == 1
    # The follower's next honest ACK rebuilds from its true position.
    mgr.on_ack("r0", 0, 0.3, epoch=2)
    assert mgr.missing_for("r0", 2) == [1, 2]


def test_note_regression_ignores_equal_and_foreign_epoch():
    mgr = ReplicationManager("g", ("r0",), epoch=2)
    mgr.on_ack("r0", 3, 0.0, epoch=2)
    assert not mgr.note_regression("r0", 3, 0.1, epoch=2)  # no regression
    assert not mgr.note_regression("r0", 1, 0.2, epoch=1)  # foreign term
    assert not mgr.note_regression("stranger", 0, 0.3, epoch=2)
    assert mgr.missing_for("r0", 4) == [4] and mgr.commit_seq == 3
    assert mgr.stats["members_readopted"] == 0
