"""Property tests for the commit-point state machine and failover.

Three guarantees the LLFT-grade protocol rests on, checked over random
interleavings rather than hand-picked cases:

* the committed prefix (``ReplicationManager.commit_seq``) only ever
  ratchets upward under appends and acks (stale-epoch acks included);
  an adoption may lower it — a (re-)adopted member counts as holding
  nothing until its first ack — but never raise it;
* promotion never elects a stale-epoch primary and is independent of
  vote arrival order (equal prefixes break to the lowest node token);
* any seed and any crash point of its schedule give a clean failover,
  and a second in-process replay (its own engine) the identical end
  state.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.sweep import TIERS, enumerate_crash_points, run_crash_case
from repro.core.actions import Notify, SendUnicast
from repro.core.config import LbrmConfig, ReplicationConfig
from repro.core.events import PrimaryFailover
from repro.core.packets import PromotePacket, ReplAckPacket
from repro.core.replication import ReplicationManager
from repro.core.sender import LbrmSender

_NO_SEQ = 2**64 - 1

# -- commit-point state machine ------------------------------------------

# One operation against the manager: an append fan-out, a follower ack
# (possibly from a wrong epoch), or a post-promotion adoption.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append")),
        st.tuples(
            st.just("ack"),
            st.integers(min_value=0, max_value=3),   # follower index
            st.integers(min_value=0, max_value=40),  # cumulative prefix
            st.integers(min_value=0, max_value=4),   # claimed epoch
        ),
        st.tuples(st.just("adopt"), st.integers(min_value=0, max_value=3)),
    ),
    max_size=60,
)


def _run_ops(ops, *, epoch: int = 2, min_acked: int = 1):
    mgr = ReplicationManager(
        "g",
        ("f0", "f1"),
        ReplicationConfig(min_replicas_acked=min_acked),
        epoch=epoch,
    )
    seq = 0
    commits = [mgr.commit_seq]
    for op in ops:
        if op[0] == "append":
            seq += 1
            mgr.replicate(seq, b"p", float(seq))
        elif op[0] == "ack":
            _, idx, cum, claimed = op
            members = mgr.members
            follower = members[idx % len(members)]
            before = mgr.commit_seq
            grew = mgr.on_ack(follower, cum, float(seq), epoch=claimed)
            if claimed and claimed != mgr.epoch:
                # Stale/foreign term: must not have moved the commit point.
                assert mgr.commit_seq == before
                assert not grew
        else:
            mgr.adopt(f"f{op[1]}", float(seq))
        commits.append(mgr.commit_seq)
    return mgr, commits


@given(_ops)
def test_commit_point_never_regresses(ops):
    """Appends and acks only move the commit point up.  An adopt() may
    move it *down* — re-adopting a member wipes its (possibly stale)
    progress, the honest direction for a crash-restarted follower — but
    must never move it up."""
    _, commits = _run_ops(ops)
    for op, before, after in zip(ops, commits, commits[1:]):
        if op[0] == "adopt":
            assert after <= before
        else:
            assert after >= before


@given(_ops, st.integers(min_value=1, max_value=2))
def test_commit_point_is_mth_highest_acked_prefix(ops, min_acked):
    mgr, _ = _run_ops(ops, min_acked=min_acked)
    acked = sorted(mgr.acked_by(m) or 0 for m in mgr.members)
    expected = acked[-min(min_acked, len(acked))]
    assert mgr.commit_seq == expected


@given(_ops)
def test_adoption_is_conservative(ops):
    """A freshly adopted follower counts as holding nothing, so adopting
    can only lower (never raise) the commit point."""
    mgr, _ = _run_ops(ops)
    before = mgr.commit_seq
    mgr.adopt("newcomer", 99.0)
    assert mgr.commit_seq <= before


# -- promotion: deterministic, never stale-epoch ---------------------------

_votes = st.dictionaries(
    keys=st.sampled_from(["r0", "r1", "r2"]),
    values=st.tuples(
        st.integers(min_value=-1, max_value=6),  # cum prefix (-1 = nothing)
        st.integers(min_value=0, max_value=6),   # commit point
        st.integers(min_value=0, max_value=4),   # epoch the follower is in
    ),
    min_size=1,
    max_size=3,
)


def _elect(votes: dict, order: list[str]):
    """Drive a real sender through QUERYING with ``votes`` arriving in
    ``order``; returns (winner, promote_packet, failover_event)."""
    cfg = LbrmConfig(replication=ReplicationConfig(primary_timeout=1.0, failover_wait=0.2))
    s = LbrmSender("g", cfg, primary="primary", replicas=tuple(sorted(votes)))
    s.start(0.0)
    for i in range(7):
        s.send(f"p{i}".encode(), 0.01 * i)
    s.poll(2.5)  # primary silent: QUERYING
    for name in order:
        cum, commit, epoch = votes[name]
        packet = ReplAckPacket(
            group="g",
            cum_seq=_NO_SEQ if cum < 0 else cum,
            commit_seq=commit,
            log_epoch=epoch,
        )
        s.handle(packet, name, 2.6)
    actions = s.poll(2.8)
    promotes = [
        a for a in actions
        if isinstance(a, SendUnicast) and isinstance(a.packet, PromotePacket)
    ]
    events = [
        a.event for a in actions
        if isinstance(a, Notify) and isinstance(a.event, PrimaryFailover)
    ]
    assert len(promotes) == 1 and len(events) == 1
    return promotes[0].dest, promotes[0].packet, events[0]


@given(_votes)
def test_election_is_independent_of_vote_arrival_order(votes):
    orders = list(itertools.permutations(votes))
    results = [_elect(votes, list(order)) for order in orders]
    winners = {winner for winner, _, _ in results}
    assert len(winners) == 1
    expected = min(votes, key=lambda a: (-votes[a][0], -votes[a][1], a))
    assert winners == {expected}


@given(_votes)
def test_elected_epoch_is_strictly_beyond_every_vote(votes):
    winner, promote, event = _elect(votes, sorted(votes))
    highest_seen = max([1] + [v[2] for v in votes.values()])
    assert promote.log_epoch > highest_seen
    assert event.log_epoch == promote.log_epoch
    assert event.new_primary == winner


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_equal_prefixes_break_to_lowest_token(cum, commit):
    votes = {"r2": (cum, commit, 1), "r0": (cum, commit, 1), "r1": (cum, commit, 1)}
    for order in ([["r2", "r1", "r0"], ["r0", "r1", "r2"], ["r1", "r0", "r2"]]):
        winner, _, _ = _elect(votes, order)
        assert winner == "r0"


# -- any seed, any crash point: clean, and identical when replayed ----------


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**20),
)
def test_engines_produce_identical_failover_end_states(seed, pick):
    shape = TIERS["micro"]
    points = enumerate_crash_points(shape, seed)
    crash_at = points[pick % len(points)]
    first = run_crash_case(shape, seed, crash_at)
    again = run_crash_case(shape, seed, crash_at)
    assert not first.violations
    assert (first.digest, first.promoted, first.log_epoch) == (
        again.digest, again.promoted, again.log_epoch
    )
