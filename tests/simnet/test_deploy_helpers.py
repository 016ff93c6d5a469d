"""Deployment experiment-hook tests (burst/crash helpers)."""

from __future__ import annotations

import pytest

from repro.simnet import DeploymentSpec, LbrmDeployment
from repro.simnet.loss import BernoulliLoss, BurstLoss


def make():
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=2, seed=61))
    dep.start()
    dep.advance(0.2)
    return dep


def test_burst_site_drops_whole_site():
    dep = make()
    dep.send(b"warm")
    dep.advance(1.0)
    dep.burst_site("site1", 0.1)
    dep.send(b"lost")
    dep.advance(0.1)  # before recovery completes
    site1 = dep.receivers[:2]
    others = dep.receivers[2:]
    assert all(not rx.tracker.has(2) for rx in site1)
    assert all(rx.tracker.has(2) for rx in others)
    dep.advance(5.0)
    assert dep.receivers_with(2) == len(dep.receivers)


def test_burst_site_keeps_the_configured_loss_model():
    """A burst adds a window over the tail circuit's own model; bursting
    the same site again adds a window, not another wrapper."""
    dep = make()
    dep.send(b"warm")
    dep.advance(1.0)
    link = dep.network.site("site1").tail_down
    link.loss = configured = BernoulliLoss(1.0, dep.streams.stream("always"))
    for _ in range(3):
        dep.burst_site("site1", 0.1)
        dep.advance(0.2)  # the window closes
        assert isinstance(link.loss, BurstLoss)
        assert link.loss.base is configured
        assert len(link.loss.windows) == 1  # expired windows are dropped
    # Outside every window the configured model still draws.
    dep.send(b"lost to the configured model")
    dep.advance(0.1)
    assert all(not rx.tracker.has(2) for rx in dep.receivers[:2])
    assert all(rx.tracker.has(2) for rx in dep.receivers[2:])


def test_overlapping_bursts_keep_the_longer_window():
    dep = make()
    dep.burst_site("site1", 1.0)
    dep.burst_site("site1", 0.1)
    dep.advance(0.5)
    dep.send(b"inside the first window")
    dep.advance(0.1)
    assert all(not rx.tracker.has(1) for rx in dep.receivers[:2])


def test_burst_sites_plural():
    dep = make()
    dep.send(b"warm")
    dep.advance(1.0)
    dep.burst_sites(["site1", "site2"], 0.1)
    dep.send(b"lost")
    dep.advance(0.1)
    assert dep.receivers_with(2) == 2  # only site3 got it live
    dep.advance(5.0)
    assert dep.receivers_with(2) == len(dep.receivers)


def test_kill_site_logger():
    dep = make()
    dep.kill_site_logger(0)
    dep.send(b"a")
    dep.advance(1.0)
    assert len(dep.site_loggers[0].log) == 0
    assert len(dep.site_loggers[1].log) == 1
    # site1 receivers still deliver (loss-free path) and would escalate
    # to the primary on loss.
    assert dep.receivers_with(1) == len(dep.receivers)


def test_burst_unknown_site_raises():
    dep = make()
    with pytest.raises(KeyError):
        dep.burst_site("site99", 0.1)
