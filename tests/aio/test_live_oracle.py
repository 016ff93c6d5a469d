"""ChaosOracle on real UDP: invariants I1-I4 graded on live runs.

Three directions: a healthy hierarchical cluster must come out clean, a
legal §2.2.3 primary failover must also come out clean (promotion is
*allowed*, only demotion/double-promotion is not), and an induced
protocol breach must be caught — an oracle that can't fail is not
checking anything.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.aio import AioCluster, GroupDirectory
from repro.chaos import ChaosOracle
from repro.core.config import LbrmConfig, ReplicationConfig
from repro.core.events import PrimaryFailover, PromotedToPrimary
from repro.core.logger import LoggerRole

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/live-oracle/e2e"


def _directory(tag: int) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.47.%d" % tag, free_udp_port())
    return directory


def test_healthy_hierarchical_cluster_is_clean():
    asyncio.run(_run_healthy())


async def _run_healthy():
    async with AioCluster(
        GROUP, n_receivers=3, n_secondaries=1, n_replicas=1, directory=_directory(1)
    ) as cluster:
        oracle = ChaosOracle(cluster)
        oracle.install()
        for i in range(6):
            await cluster.publish(b"pkt-%d" % i)
            await asyncio.sleep(0.05)
        for i in range(3):
            await asyncio.wait_for(cluster.deliveries(i, 6), 5.0)
        await asyncio.sleep(0.3)
        oracle.assert_ok()


def test_replica_promotion_over_udp_is_clean():
    asyncio.run(_run_failover())


async def _run_failover():
    config = LbrmConfig(
        replication=ReplicationConfig(primary_timeout=0.5, failover_wait=0.2)
    )
    async with AioCluster(
        GROUP, config, n_receivers=2, n_replicas=1, directory=_directory(2)
    ) as cluster:
        oracle = ChaosOracle(cluster)
        oracle.install()
        replica_addr = cluster.replica_nodes[0].address

        await cluster.publish(b"before-1")
        await cluster.publish(b"before-2")
        for i in range(2):
            await asyncio.wait_for(cluster.deliveries(i, 2), 5.0)
        await asyncio.sleep(0.3)  # replication catches up

        # Primary log dies with data about to go outstanding.
        await cluster.primary_node.close()
        await cluster.publish(b"after-1")
        await cluster.publish(b"after-2")

        # primary_timeout passes with no LogAck -> sender polls replicas
        # -> most-up-to-date replica is promoted and handed the tail.
        for _ in range(60):
            if cluster.sender.primary == replica_addr:
                break
            await asyncio.sleep(0.1)
        assert cluster.sender.primary == replica_addr
        assert any(isinstance(e, PrimaryFailover) for e in cluster.source_node.events)

        for _ in range(30):
            if cluster.replicas[0].role is LoggerRole.PRIMARY:
                break
            await asyncio.sleep(0.1)
        assert cluster.replicas[0].role is LoggerRole.PRIMARY
        assert any(
            isinstance(e, PromotedToPrimary) for e in cluster.replica_nodes[0].events
        )
        # The promoted log holds the whole stream, including the tail
        # the dead primary never saw.
        for _ in range(30):
            if cluster.replicas[0].primary_seq == 4:
                break
            await asyncio.sleep(0.1)
        assert cluster.replicas[0].primary_seq == 4

        for i in range(2):
            await asyncio.wait_for(cluster.deliveries(i, 2), 5.0)
        await asyncio.sleep(0.2)
        # A legal failover must not read as a violation.
        oracle.assert_ok()


def test_oracle_catches_induced_silence_breach():
    asyncio.run(_run_silence_breach())


async def _run_silence_breach():
    async with AioCluster(GROUP, n_receivers=1, directory=_directory(3)) as cluster:
        oracle = ChaosOracle(cluster, grace=0.2, check_interval=0.1)
        oracle.install()
        await cluster.publish(b"only-one")
        await asyncio.wait_for(cluster.deliveries(0, 1), 5.0)
        # Lobotomize the sender: its machines stop polling, so the MaxIT
        # heartbeat promise (§2.1) is silently broken while the node —
        # and the socket — stay alive.
        cluster.source_node.machines.clear()
        hb = cluster.config.heartbeat
        await asyncio.sleep(2.0 * hb.h_min + 0.2 + 1.0)
        violations = oracle.finish()
        assert any(v.invariant == "silence" for v in violations)


def test_oracle_requires_started_cluster():
    cluster = AioCluster(GROUP, directory=_directory(4))
    oracle = ChaosOracle(cluster)

    async def run():
        with pytest.raises(RuntimeError):
            oracle.install()

    asyncio.run(run())
