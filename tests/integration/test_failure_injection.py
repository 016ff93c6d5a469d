"""Failure-injection suite: components die at the worst moments.

Receiver-reliability's promise is that each receiver can look after
itself whatever happens around it; these tests crash loggers mid
recovery, drop whole phases of the statack exchange, and partition sites
for long stretches, asserting the survivors converge.

Faults are declared as :class:`repro.chaos.FaultSchedule` entries and
checked by the runtime invariant oracle; each test keeps its original
scenario-specific assertions as cross-checks on top of
``oracle.assert_ok()``.
"""

from __future__ import annotations

import pytest

from repro.chaos import Fault
from repro.core.events import RecoveryFailed
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment, NoLoss

from tests.integration._chaos import arm


def deployment(**kw) -> LbrmDeployment:
    return LbrmDeployment(
        DeploymentSpec(**{"n_sites": 4, "receivers_per_site": 3, "seed": 71, **kw})
    )


def test_site_logger_dies_mid_recovery():
    """The logger answers the first NACK with silence (it just died);
    the receiver escalates to the primary and still recovers."""
    dep = deployment()
    # Timeline: send a @0.2, rx0 blind for the b send @1.2, logger dies
    # at 1.46 with rx0's NACK in flight to it.
    oracle = arm(dep, [
        Fault("corrupt", 1.2, "site1-rx0", duration=0.05, amount=1.0),
        Fault("crash", 1.46, "site1-logger"),
    ])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")
    dep.advance(20.26)
    oracle.assert_ok()
    assert dep.receivers[0].tracker.has(2)


def test_all_site_loggers_dead_still_recovers():
    dep = deployment()
    oracle = arm(dep, [
        Fault("crash", 1.1, f"site{i}-logger") for i in range(1, 5)
    ] + [
        Fault("partition", 1.2, "site2", duration=0.05),
    ])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")
    dep.advance(20.0)
    oracle.assert_ok()
    assert dep.receivers_with(2) == len(dep.receivers)


def test_primary_and_site_logger_both_dead_without_replicas():
    """Nothing can serve the packet: recovery fails *cleanly* (bounded
    retries, RecoveryFailed event, tracker stops hunting).  The oracle's
    delivery invariant is off — this world is *meant* to lose data."""
    dep = deployment()
    oracle = arm(dep, [
        Fault("crash", 1.1, "site1-logger"),
        Fault("crash", 1.1, "primary"),
        Fault("corrupt", 1.2, "site1-rx0", duration=0.05, amount=1.0),
    ], require_delivery=False)
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")
    dep.advance(60.0)
    oracle.assert_ok()
    rx = dep.receivers[0]
    assert not rx.tracker.has(2)
    assert rx.missing == frozenset()  # gave up, not stuck
    failures = dep.receiver_nodes[0].events_of(RecoveryFailed)
    assert failures and failures[0].seq == 2


def test_long_partition_then_rejoin():
    """A site partitioned for 30 s misses a dozen updates; on rejoin the
    heartbeat reveals the backlog and the whole gap is recovered."""
    dep = deployment()
    oracle = arm(dep, [Fault("partition", 1.2, "site3", duration=30.0)])
    dep.start()
    dep.advance(0.2)
    dep.send(b"seed")
    dep.advance(1.0)
    for i in range(12):
        dep.send(f"during-{i}".encode())
        dep.advance(2.0)
    dep.advance(40.0)
    oracle.assert_ok()
    assert dep.receivers_missing() == 0
    assert dep.receivers_with(13) == len(dep.receivers)


def test_sustained_random_loss_converges():
    """20% Bernoulli loss on every tail for a 30-packet stream: all
    receivers end complete.  The loss models stay hand-rolled here (the
    chaos layer composes *with* them, it does not replace them); loggers
    may exhaust their default upstream-retry budget under sustained
    loss, so only the receiver-side invariants are asserted."""
    dep = deployment()
    oracle = arm(dep, require_full_logs=False)
    dep.start()
    dep.advance(0.2)
    for site in dep.receiver_sites:
        site.tail_down.loss = BernoulliLoss(0.2, dep.streams.stream(f"loss:{site.name}"))
    for i in range(30):
        dep.send(f"pkt{i}".encode())
        dep.advance(0.4)
    for site in dep.receiver_sites:
        site.tail_down.loss = NoLoss()
    dep.advance(20.0)
    oracle.assert_ok()
    assert dep.receivers_missing() == 0
    for seq in range(1, 31):
        assert dep.receivers_with(seq) == len(dep.receivers)


def test_receiver_crash_does_not_disturb_others():
    """The whole point of receiver-reliability: no receiver state at the
    source, so a dead receiver changes nothing for anyone else."""
    dep = deployment()
    oracle = arm(dep, [Fault("crash", 1.1, "site1-rx0")])
    dep.start()
    dep.advance(0.2)
    dep.send(b"a")
    dep.advance(1.0)
    for i in range(5):
        dep.send(f"pkt{i}".encode())
        dep.advance(0.4)
    dep.advance(3.0)
    oracle.assert_ok()
    survivors = dep.receivers[1:]
    assert all(rx.tracker.has(6) for rx in survivors)
    assert dep.sender.unacked == 0  # source never waited for the dead receiver


def test_statack_survives_acker_crash_mid_epoch():
    """A Designated Acker dies; its missing ACKs cost at most a few
    spurious re-multicasts in the current epoch (§2.3.2: 'their effects
    are limited to the current epoch'), and the next selection excludes it.

    The fault schedule is built mid-run, once the acker draw is known —
    schedules are values, so late installation is just a later
    ``install()``, and fault times count from it."""
    from repro.core.config import LbrmConfig, StatAckConfig

    cfg = LbrmConfig(statack=StatAckConfig(k_ackers=10, epoch_length=6))
    dep = LbrmDeployment(DeploymentSpec(n_sites=8, receivers_per_site=1,
                                        enable_statack=True, config=cfg, seed=72))
    dep.start()
    dep.advance(3.0)
    sa = dep.sender.statack
    ackers = sorted(sa.designated_ackers)
    assert ackers
    victim_name = ackers[0]
    oracle = arm(dep, [Fault("crash", 0.0, victim_name)])
    for i in range(14):  # rides through at least two epoch rollovers
        dep.send(b"x")
        dep.advance(0.5)
    oracle.assert_ok()
    # the stream keeps flowing and later epochs exclude the dead logger
    assert dep.sender.stats["data_sent"] == 14
    assert victim_name not in sa.designated_ackers
