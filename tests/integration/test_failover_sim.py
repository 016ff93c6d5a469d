"""Primary-log failure and replica promotion over the simulator (§2.2.3).

Primary deaths are declared as chaos faults; the invariant oracle
watches promotion monotonicity (a replica is promoted at most once, at
non-decreasing hand-off sequences) and log safety throughout, with each
test's original assertions kept as cross-checks.
"""

from __future__ import annotations


from repro.chaos import Fault
from repro.core.events import PrimaryFailover, PromotedToPrimary
from repro.core.logger import LoggerRole
from repro.simnet import DeploymentSpec, LbrmDeployment

from tests.integration._chaos import arm


def deployment(n_replicas=2, seed=21):
    return LbrmDeployment(DeploymentSpec(
        n_sites=3, receivers_per_site=2, n_replicas=n_replicas, seed=seed,
    ))


def test_replication_keeps_replicas_current():
    dep = deployment()
    oracle = arm(dep)  # no faults: the oracle is a pure conformance check
    dep.start()
    dep.advance(0.2)
    for i in range(5):
        dep.send(f"u{i}".encode())
        dep.advance(0.3)
    oracle.assert_ok()
    assert all(len(r.log) == 5 for r in dep.replicas)
    assert dep.sender.released_up_to == 5


def test_failover_promotes_most_up_to_date_replica():
    dep = deployment()
    oracle = arm(dep, [Fault("crash", 0.7, "primary")])
    dep.start()
    dep.advance(0.2)
    dep.send(b"before")
    dep.advance(0.5)  # primary dies at 0.7, right after this window
    dep.send(b"during")  # unackable: primary is dead
    dep.advance(6.0)  # primary_timeout (2s) + vote + promote + handover
    oracle.assert_ok()
    events = dep.source_node.events_of(PrimaryFailover)
    assert len(events) == 1
    new_primary = events[0].new_primary
    assert dep.sender.primary == new_primary
    promoted = [r for r in dep.replicas if r.role is LoggerRole.PRIMARY]
    assert len(promoted) == 1
    # Handover gave the new primary everything the old one never replicated.
    assert len(promoted[0].log) == 2
    assert dep.sender.unacked == 0


def test_service_continues_after_failover():
    dep = deployment()
    oracle = arm(dep, [Fault("crash", 0.7, "primary")])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.5)
    dep.send(b"b")
    dep.advance(6.0)
    dep.send(b"c")
    dep.advance(2.0)
    oracle.assert_ok()
    assert dep.receivers_with(3) == len(dep.receivers)
    assert dep.sender.released_up_to == 3


def test_receivers_recover_via_new_primary():
    """After failover, a receiver whose whole chain is stale reaches the
    source, learns the new primary, and recovers through it."""
    dep = deployment()
    oracle = arm(dep, [
        Fault("crash", 0.7, "primary"),
        # Also kill site1's logger so its receivers must escalate.
        Fault("crash", 0.7, "site1-logger"),
        Fault("corrupt", 0.7, "site1-rx0", duration=0.05, amount=1.0),
    ])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.5)
    dep.send(b"b")
    dep.advance(20.0)  # escalation retries + failover + PRIMARY_QUERY round
    oracle.assert_ok()
    rx = dep.receivers[0]
    assert rx.tracker.has(2)


def test_no_failover_without_outstanding_data():
    dep = deployment()
    oracle = arm(dep, [Fault("crash", 0.7, "primary")])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.5)
    dep.advance(10.0)  # idle: nothing unacked, no reason to fail over
    oracle.assert_ok()
    assert dep.source_node.events_of(PrimaryFailover) == []


def test_equal_prefix_tie_breaks_to_lowest_node_id():
    """Both replicas are fully caught up when the primary dies mid-flight
    with one packet unlogged: their votes tie exactly, and promotion must
    pick replica0 (lowest node id), whichever vote arrived first."""
    dep = deployment()
    oracle = arm(dep, [Fault("crash", 0.69, "primary")])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.49)  # seq 1 fully replicated and released
    dep.send(b"b")     # at 0.69+: the primary is already dead, seq 2 hangs
    dep.advance(6.0)
    oracle.assert_ok()
    events = dep.source_node.events_of(PrimaryFailover)
    assert len(events) == 1
    assert events[0].new_primary == "replica0"
    assert events[0].log_epoch == 2
    assert dep.sender.primary == "replica0"
    assert dep.replicas[0].role is LoggerRole.PRIMARY
    assert dep.replicas[1].role is LoggerRole.REPLICA
    # The handover completed: the tie winner now holds the dangling tail.
    assert dep.replicas[0].primary_seq == 2
    assert dep.sender.unacked == 0


def test_promoted_primary_adopts_surviving_follower():
    """After promotion the new primary adopts the other replica and
    backfills it, so the commit point stays replicated (not a single
    copy) across the failover."""
    dep = deployment()
    oracle = arm(dep, [Fault("crash", 0.69, "primary")])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.49)
    dep.send(b"b")
    dep.advance(6.0)
    dep.send(b"c")
    dep.advance(3.0)
    oracle.assert_ok()
    promoted = next(r for r in dep.replicas if r.role is LoggerRole.PRIMARY)
    follower = next(r for r in dep.replicas if r.role is LoggerRole.REPLICA)
    assert promoted.replication is not None
    assert promoted.replication.members  # adopted the survivor
    assert promoted.log_epoch == 2
    assert follower.log_epoch == 2  # learned the new term from the pushes
    assert follower.primary_seq == 3  # backfilled + kept current
    assert dep.sender.released_up_to == 3


def test_single_replica_failover():
    dep = deployment(n_replicas=1)
    oracle = arm(dep, [Fault("crash", 0.7, "primary")])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(0.5)
    dep.send(b"b")
    dep.advance(6.0)
    oracle.assert_ok()
    assert dep.replicas[0].role is LoggerRole.PRIMARY
    assert dep.sender.primary == "replica0"
