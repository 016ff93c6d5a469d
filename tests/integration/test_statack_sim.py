"""Statistical acknowledgement over the simulated WAN (§2.3, Figure 8)."""

from __future__ import annotations

import pytest

from repro.core.config import LbrmConfig, StatAckConfig
from repro.core.events import EpochStarted, Remulticast
from repro.simnet import BurstLoss, DeploymentSpec, LbrmDeployment


def deployment(n_sites=20, k=10, seed=5, **kw):
    cfg = LbrmConfig(statack=StatAckConfig(k_ackers=k, epoch_length=32))
    dep = LbrmDeployment(DeploymentSpec(
        n_sites=n_sites, receivers_per_site=2, enable_statack=True,
        config=cfg, seed=seed, **kw,
    ))
    dep.start()
    dep.advance(3.0)  # bootstrap probing + first epoch selection
    return dep


def test_bootstrap_reaches_active_epoch():
    dep = deployment()
    sa = dep.sender.statack
    assert sa.current_epoch == sa.epoch >= 1  # active, no selection under way
    events = dep.source_node.events_of(EpochStarted)
    assert events and events[-1].expected_ackers == len(sa.designated_ackers)


def test_group_size_estimate_in_band():
    dep = deployment(n_sites=50)
    sa = dep.sender.statack
    # Unbiased estimator, sigma = sqrt(N(1-p)/p); accept a generous band.
    assert 20 <= sa.group_size_estimate <= 110


def test_clean_run_no_remulticasts():
    dep = deployment()
    for _ in range(10):
        dep.send(b"x")
        dep.advance(0.4)
    assert dep.sender.stats["remulticasts"] == 0
    assert dep.sender.statack.stats["acks_received"] > 0


def test_widespread_loss_triggers_immediate_remulticast():
    """Figure 8: missing ACKs at the t_wait deadline => re-multicast now,
    recovering every site within ~1 RTT without NACK implosion."""
    dep = deployment(n_sites=50, seed=7)
    dep.send(b"warm")
    dep.advance(1.0)
    now = dep.sim.now
    for i in range(1, 40):
        dep.network.site(f"site{i}").tail_down.loss = BurstLoss([(now, now + 0.05)])
    nacks_before = dep.trace.cross_site_nacks()
    dep.send(b"lost-everywhere")
    dep.advance(0.5)
    assert dep.sender.stats["remulticasts"] >= 1
    assert dep.receivers_with(2) == len(dep.receivers)
    # the re-multicast preempted almost all per-site NACK traffic
    assert dep.trace.cross_site_nacks() - nacks_before <= 5


def test_small_group_unicast_strategy():
    """With few sites every logger acks; a missing ACK names its site and
    the source unicasts instead of disturbing everyone (§2.3.2)."""
    cfg = LbrmConfig(statack=StatAckConfig(k_ackers=20, sites_per_acker_multicast=2.0))
    dep = LbrmDeployment(DeploymentSpec(
        n_sites=6, receivers_per_site=2, enable_statack=True, config=cfg, seed=9,
    ))
    dep.start()
    dep.advance(3.0)
    dep.send(b"warm")
    dep.advance(1.0)
    now = dep.sim.now
    dep.network.site("site3").tail_down.loss = BurstLoss([(now, now + 0.05)])
    dep.send(b"lost-at-site3")
    dep.advance(2.0)
    assert dep.sender.stats["remulticasts"] == 0
    assert dep.sender.stats["unicast_retransmits"] >= 1
    assert dep.receivers_with(2) == len(dep.receivers)


def test_epoch_rollover_in_deployment():
    cfg = LbrmConfig(statack=StatAckConfig(k_ackers=5, epoch_length=4))
    dep = LbrmDeployment(DeploymentSpec(
        n_sites=10, receivers_per_site=1, enable_statack=True, config=cfg, seed=3,
    ))
    dep.start()
    dep.advance(3.0)
    first_epoch = dep.sender.statack.epoch
    for _ in range(12):
        dep.send(b"x")
        dep.advance(0.4)
    assert dep.sender.statack.epoch > first_epoch
    assert dep.sender.statack.stats["epochs"] >= 3


def test_t_wait_tracks_network_rtt():
    """t_wait converges near the designated-acker round-trip (~80 ms)."""
    dep = deployment(n_sites=30, seed=13)
    for _ in range(40):
        dep.send(b"x")
        dep.advance(0.4)
    # cross-site RTT in the default topology ~79 ms
    assert 0.03 <= dep.sender.statack.t_wait <= 0.2
