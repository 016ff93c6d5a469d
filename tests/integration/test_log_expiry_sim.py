"""Log retention policies end-to-end (§2: 'useful lifetime').

When loggers expire entries, a late retransmission request finds nothing
anywhere in the hierarchy: recovery must fail cleanly; within the
retention window it must still succeed.
"""

from __future__ import annotations

import pytest

from repro.core.actions import run_actions
from repro.core.config import LbrmConfig, LoggerConfig
from repro.core.events import RecoveryFailed
from repro.simnet import BurstLoss, DeploymentSpec, LbrmDeployment


def deployment(lifetime: float):
    cfg = LbrmConfig(logger=LoggerConfig(packet_lifetime=lifetime))
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=2,
                                        config=cfg, seed=91))
    dep.start()
    dep.advance(0.2)
    return dep


def test_recovery_within_retention_window():
    dep = deployment(lifetime=60.0)
    dep.send(b"a")
    dep.advance(1.0)
    dep.burst_site("site1", 0.1)
    dep.send(b"b")
    dep.advance(10.0)  # well inside the 60 s lifetime
    assert dep.receivers_with(2) == len(dep.receivers)


def test_expired_entries_vanish_from_logs():
    dep = deployment(lifetime=5.0)
    dep.send(b"a")
    dep.advance(1.0)
    assert all(1 in l.log for l in dep.site_loggers)
    dep.send(b"tick")  # keeps timers churning
    dep.advance(30.0)
    # the housekeeping in LogServer.poll expired seq 1 everywhere
    assert all(1 not in l.log for l in dep.site_loggers)
    assert 1 not in dep.primary.log


def test_late_joiner_cannot_recover_expired_history():
    """A receiver that joins after history expired gives up cleanly when
    the application asks for ancient sequences."""
    from repro.core.receiver import LbrmReceiver
    from repro.simnet import SimNode

    dep = deployment(lifetime=2.0)
    dep.send(b"old-1")
    dep.send(b"old-2")
    dep.advance(20.0)  # both expired everywhere (heartbeats keep polls alive)
    dep.send(b"current")
    dep.advance(1.0)

    host = dep.network.add_host("late", dep.receiver_sites[0])
    rx = LbrmReceiver(dep.spec.group, dep.spec.config.receiver,
                      logger_chain=("site1-logger", "primary"),
                      source="source", heartbeat=dep.spec.config.heartbeat)
    node = SimNode(dep.network, host, [rx])
    node.start()
    dep.advance(0.1)
    dep.send(b"fresh")
    dep.advance(1.0)
    assert rx.tracker.has(4)

    # The application explicitly hunts for expired history: hand the
    # tracker the old gap via a crafted heartbeat observation.
    run_actions(rx._begin_recovery((1, 2), dep.sim.now, via_silence=False), node)
    node._reschedule()
    dep.advance(60.0)
    failures = node.events_of(RecoveryFailed)
    assert {f.seq for f in failures} == {1, 2}
    assert rx.missing == frozenset()
