"""ChaosController on real UDP: one node schedule, graded by ChaosOracle.

The controller reads the surface both runtimes share (``now``,
``call_later``, ``node(target)``; on aio a target is an address token)
and applies node faults through the node base class, so a
:class:`FaultSchedule` written for the simulator runs on an
:class:`AioCluster` unchanged.  Site and packet faults act on a simulated
network, which a cluster does not have: it refuses them at ``install()``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioCluster, GroupDirectory
from repro.chaos import ChaosController, ChaosOracle, Fault, FaultSchedule
from repro.core.config import LbrmConfig, ReplicationConfig
from repro.core.errors import ConfigError
from repro.core.logger import LoggerRole

from tests.aio._netutil import free_udp_port

GROUP = "test/controller-aio/e2e"
PACKETS = 14


def _directory(tag: int) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.51.%d" % tag, free_udp_port())
    return directory


async def _until(done, timeout: float) -> None:
    for _ in range(int(timeout / 0.05)):
        if done():
            return
        await asyncio.sleep(0.05)


@pytest.mark.network
def test_a_node_schedule_runs_on_a_udp_cluster():
    asyncio.run(_run_schedule())


async def _run_schedule():
    config = LbrmConfig(replication=ReplicationConfig(primary_timeout=0.5, failover_wait=0.2))
    async with AioCluster(
        GROUP, config, n_receivers=3, n_replicas=1, directory=_directory(1)
    ) as cluster:
        rx = [node.name for node in cluster.receiver_nodes]
        primary = cluster.primary_node.name
        controller = ChaosController(cluster, FaultSchedule(faults=(
            Fault("pause", 0.2, rx[0]), Fault("resume", 0.6, rx[0]),
            Fault("crash", 0.3, rx[1]), Fault("restart", 0.8, rx[1]),
            Fault("skew", 0.4, rx[2], amount=0.05),
            Fault("crash", 1.0, primary),
        )))
        controller.install()
        oracle = ChaosOracle(cluster)
        oracle.install()
        for i in range(PACKETS):
            await cluster.publish(b"pkt-%d" % i)
            await asyncio.sleep(0.1)

        replica = cluster.replicas[0]
        await _until(lambda: replica.role is LoggerRole.PRIMARY, 5.0)
        everything = set(range(1, PACKETS + 1))
        await _until(lambda: all({d.seq for d in node.delivered} == everything
                                 for node in cluster.receiver_nodes), 10.0)

        assert controller.faults_injected == 6
        assert [fault.kind for _at, fault in controller.applied] == [
            "pause", "crash", "skew", "resume", "restart", "crash"]
        assert not cluster.primary_node.alive
        assert cluster.node(rx[2]).clock_skew == 0.05
        assert replica.role is LoggerRole.PRIMARY
        assert cluster.sender.primary == cluster.replica_nodes[0].address
        for node in cluster.receiver_nodes:
            assert {d.seq for d in node.delivered} == everything, node.name
        # The paused and the crashed receiver slept through packets and
        # recovered them from a log.
        assert all(r.stats["nacks_sent"] >= 1 for r in cluster.receivers[:2])
        oracle.assert_ok()


@pytest.mark.parametrize("fault", [
    Fault("partition", 0.5, "site1", duration=1.0),
    Fault("corrupt", 0.5, "", duration=1.0, amount=0.5),
], ids=["partition", "packet"])
def test_network_faults_are_refused_without_a_network(fault):
    controller = ChaosController(AioCluster(GROUP), FaultSchedule(faults=(fault,)))
    with pytest.raises(ConfigError):
        controller.install()
