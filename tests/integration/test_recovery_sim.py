"""End-to-end recovery over the simulated WAN.

These integration tests reproduce the paper's §2.2.2 mechanics: site-wide
loss on a tail circuit, local recovery via the secondary logger, NACK
collapse, and latency differences between local and WAN recovery.

Site outages and receiver blindness are declared as chaos faults
(``partition`` / ``corrupt``); the invariant oracle rides along on every
run, with the original NACK-count and latency assertions kept as
cross-checks.
"""

from __future__ import annotations

import pytest

from repro.chaos import Fault
from repro.core.events import LossDetected, RecoveryComplete
from repro.core.packets import PacketType
from repro.simnet import DeploymentSpec, LbrmDeployment

from tests.integration._chaos import arm


def deployment(**kw) -> LbrmDeployment:
    return LbrmDeployment(
        DeploymentSpec(**{"n_sites": 5, "receivers_per_site": 4, "seed": 11, **kw})
    )


def test_clean_network_full_delivery():
    dep = deployment()
    oracle = arm(dep)
    dep.start()
    dep.advance(0.1)
    for i in range(5):
        dep.send(f"update-{i}".encode())
        dep.advance(0.2)
    dep.advance(1.0)
    oracle.assert_ok()
    for seq in range(1, 6):
        assert dep.receivers_with(seq) == len(dep.receivers)
    assert dep.trace.cross_site_nacks() == 0


def test_site_burst_recovers_with_one_cross_site_nack():
    """Distributed logging: a whole-site loss costs ONE NACK on the WAN
    (the secondary logger's), not one per receiver (Fig 7)."""
    dep = deployment()
    oracle = arm(dep, [Fault("partition", 1.1, "site1", duration=0.1)])
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")
    dep.advance(3.0)
    oracle.assert_ok()
    assert dep.receivers_with(2) == len(dep.receivers)
    assert dep.trace.cross_site_nacks() == 1


def test_centralized_burst_floods_wan_with_nacks():
    """Same loss without secondary loggers: every receiver NACKs the
    primary across the WAN (Fig 7a)."""
    dep = deployment(secondary_loggers=False)
    oracle = arm(dep, [Fault("partition", 1.1, "site1", duration=0.1)])
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")
    dep.advance(3.0)
    oracle.assert_ok()
    assert dep.receivers_with(2) == len(dep.receivers)
    assert dep.trace.cross_site_nacks() == 4  # one per receiver at the site


def test_local_loss_recovered_within_site():
    """A single receiver's loss is served by the site logger: zero WAN
    NACK traffic and LAN-scale latency."""
    dep = deployment()
    oracle = arm(dep, [Fault("corrupt", 1.1, "site1-rx0", duration=0.05, amount=1.0)])
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")
    dep.advance(2.0)
    oracle.assert_ok()
    assert dep.receivers_with(2) == len(dep.receivers)
    assert dep.trace.cross_site_nacks() == 0
    recoveries = [e for e in dep.receiver_nodes[0].events_of(RecoveryComplete)]
    assert recoveries
    # Detection at the h_min heartbeat; recovery RTT is LAN-scale (~4ms),
    # far below a WAN RTT (~80ms).
    assert recoveries[0].latency < 0.02


def test_wan_recovery_latency_an_order_of_magnitude_larger():
    """When the site logger also lost the packet, recovery crosses the
    WAN: latency ~80ms RTT vs ~4ms locally (§2.2.2 ping survey)."""
    dep = deployment()
    # Victim loses the packet AND the site logger never logs it: kill the
    # site logger entirely so recovery must escalate to the primary.
    oracle = arm(dep, [
        Fault("crash", 1.05, "site1-logger"),
        Fault("corrupt", 1.1, "site1-rx0", duration=0.05, amount=1.0),
    ])
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")
    dep.advance(5.0)
    oracle.assert_ok()
    node = dep.receiver_nodes[0]
    recoveries = node.events_of(RecoveryComplete)
    assert recoveries
    # escalation first burns retries on the dead site logger, then the
    # primary answers one WAN RTT later.
    assert recoveries[-1].latency > 0.07


def test_heartbeats_reveal_loss_of_final_packet():
    """Nothing follows the lost packet: only a heartbeat can reveal it."""
    dep = deployment()
    oracle = arm(dep, [Fault("partition", 1.1, "site2", duration=0.1)])
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.advance(1.0)
    dep.send(b"b")  # site2 misses it; no more data follows
    dep.advance(5.0)
    oracle.assert_ok()
    assert dep.receivers_with(2) == len(dep.receivers)


def test_long_burst_detection_bounded():
    """§2.1.1: detection delay after a burst <= 2 x t_burst (backoff 2)."""
    dep = deployment()
    t_burst = 2.0
    oracle = arm(dep, [Fault("partition", 1.1, "site3", duration=t_burst)])
    node = dep.receiver_nodes[(3 - 1) * 4]  # first receiver at site3
    detected: list[float] = []
    chained = node.on_event

    def stamp(event, now: float) -> None:
        if isinstance(event, LossDetected) and 2 in event.seqs:
            detected.append(now)
        if chained is not None:
            chained(event, now)

    node.on_event = stamp
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.advance(1.0)
    lost_at = dep.sim.now
    dep.send(b"b")
    dep.advance(10.0)
    oracle.assert_ok()
    # Measured 3.79 s: the first heartbeat after the partition heals.
    assert len(detected) == 1 and detected[0] - lost_at <= 2 * t_burst
    recoveries = node.events_of(RecoveryComplete)
    assert recoveries
    rx = dep.receivers[(3 - 1) * 4]
    assert rx.tracker.has(2)


def test_many_consecutive_losses_batched_nacks():
    dep = deployment()
    oracle = arm(dep, [Fault("partition", 0.6, "site1", duration=1.0)])
    dep.start()
    dep.advance(0.1)
    dep.send(b"seed")
    dep.advance(0.5)
    for _ in range(10):
        dep.send(b"x")
        dep.advance(0.1)
    dep.advance(5.0)
    oracle.assert_ok()
    assert dep.receivers_missing() == 0
    # Recovery happened but NACKs were batched: far fewer cross-site
    # NACKs than lost packets x receivers.
    assert dep.trace.cross_site_nacks() <= 10
