"""Deployment builder tests: shape, wiring, basic operation."""

from __future__ import annotations

import pytest

from repro.core.logger import LoggerRole
from repro.simnet.deploy import (
    BACKBONE_LATENCY,
    LAN_LATENCY,
    TAIL_LATENCY,
    DeploymentSpec,
    LbrmDeployment,
)


def test_default_spec_matches_paper_scenario():
    spec = DeploymentSpec()
    assert spec.n_sites == 50
    assert spec.receivers_per_site == 20
    # host-to-host RTT across sites ~ 80 ms (§2.2.2 ping survey)
    one_way = LAN_LATENCY + TAIL_LATENCY + BACKBONE_LATENCY + TAIL_LATENCY + LAN_LATENCY
    assert 2 * one_way == pytest.approx(0.079, abs=0.005)
    # local logger RTT ~ 3-4 ms
    assert 2 * 2 * LAN_LATENCY == pytest.approx(0.004, abs=0.001)


def test_build_shape():
    dep = LbrmDeployment(DeploymentSpec(n_sites=4, receivers_per_site=3, n_replicas=2, seed=1))
    assert len(dep.receivers) == 12
    assert len(dep.site_loggers) == 4
    assert len(dep.replicas) == 2
    assert dep.primary is not None and dep.primary.role is LoggerRole.PRIMARY
    assert all(r.role is LoggerRole.REPLICA for r in dep.replicas)
    assert dep.network.modeled_stats()["hosts"] == 1 + 1 + 2 + 4 * (1 + 3)


def test_receiver_chain_prefers_site_logger():
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=1, seed=1))
    assert dep.receivers[0].logger_chain == ("site1-logger", "primary")


def test_centralized_chain_is_primary_only():
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=1,
                                        secondary_loggers=False, seed=1))
    assert dep.site_loggers == []
    assert dep.receivers[0].logger_chain == ("primary",)


def test_send_and_deliver_everywhere():
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=4, seed=2))
    dep.start()
    dep.advance(0.1)
    seq = dep.send(b"hello")
    dep.advance(1.0)
    assert seq == 1
    assert dep.receivers_with(1) == 12
    assert dep.receivers_missing() == 0


def test_loggers_all_hold_the_log():
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=1, seed=2))
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.send(b"b")
    dep.advance(1.0)
    assert len(dep.primary.log) == 2
    assert all(len(l.log) == 2 for l in dep.site_loggers)


def test_source_buffer_released_after_log_ack():
    dep = LbrmDeployment(DeploymentSpec(n_sites=1, receivers_per_site=1, seed=2))
    dep.start()
    dep.advance(0.1)
    dep.send(b"a")
    dep.advance(0.5)
    assert dep.sender.unacked == 0
    assert dep.sender.released_up_to == 1


def test_kill_primary_silences_it():
    dep = LbrmDeployment(DeploymentSpec(n_sites=1, receivers_per_site=1, seed=2))
    dep.start()
    dep.advance(0.1)
    dep.kill_primary()
    dep.send(b"a")
    dep.advance(1.0)
    assert len(dep.primary.log) == 0
    assert dep.sender.unacked == 1  # never acked


def test_deterministic_across_runs():
    def run():
        dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=2,
                                            enable_statack=True, seed=7))
        dep.start()
        dep.advance(2.0)
        for _ in range(5):
            dep.send(b"x")
            dep.advance(0.5)
        return (
            dep.sender.stats.copy(),
            dep.trace.counts.copy(),
            dep.sender.statack.group_size_estimate,
        )

    assert run() == run()
