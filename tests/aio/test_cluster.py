"""AioCluster end-to-end tests over real UDP."""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioCluster, GroupDirectory
from repro.core.config import LbrmConfig, StatAckConfig
from repro.core.logger import LoggerRole
from repro.core.packets import AckerSelectPacket

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network


def _directory(tag: int) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.43.%d" % tag, free_udp_port())
    return directory


GROUP = "test/cluster/e2e"


def test_cluster_delivery():
    asyncio.run(_run_delivery())


async def _run_delivery():
    async with AioCluster(GROUP, n_receivers=3, directory=_directory(1)) as cluster:
        await asyncio.sleep(0.1)
        seq = await cluster.publish(b"hello cluster")
        assert seq == 1
        for i in range(3):
            (delivery,) = await asyncio.wait_for(cluster.deliveries(i, 1), 3.0)
            assert delivery.payload == b"hello cluster"
        await asyncio.sleep(0.1)
        assert cluster.sender.released_up_to == 1
        assert 1 in cluster.primary.log


def test_cluster_with_replicas():
    asyncio.run(_run_replicas())


async def _run_replicas():
    async with AioCluster(GROUP, n_receivers=1, n_replicas=2,
                          directory=_directory(2)) as cluster:
        await asyncio.sleep(0.1)
        await cluster.publish(b"replicated")
        await asyncio.wait_for(cluster.deliveries(0, 1), 3.0)
        await asyncio.sleep(0.2)  # replication round-trips
        assert all(1 in r.log for r in cluster.replicas)
        assert all(r.role is LoggerRole.REPLICA for r in cluster.replicas)
        # replica-safe release (§2.2.3)
        assert cluster.sender.released_up_to == 1


def test_cluster_statack_over_udp():
    asyncio.run(_run_statack())


async def _run_statack():
    """The statack engine bootstraps over real sockets.

    With no secondary loggers in this small cluster, probing simply
    converges on an empty/small group without hanging — the liveness
    property that matters here."""
    async with AioCluster(GROUP, n_receivers=1, enable_statack=True,
                          directory=_directory(3)) as cluster:
        await asyncio.sleep(0.1)
        await cluster.publish(b"x")
        (d,) = await asyncio.wait_for(cluster.deliveries(0, 1), 3.0)
        assert d.payload == b"x"
        sa = cluster.sender.statack
        assert sa is not None
        assert sa.stats["probes_sent"] >= 1


def test_secondaries_flip_their_own_coins():
    asyncio.run(_run_own_coins())


async def _run_own_coins():
    """§2.3.1 picks ~k of N secondaries at random each epoch.  Built
    without their own streams, every secondary flipped the same coins,
    and an epoch took all of them or none."""
    # One probe at start, then a 10 s window: no coin is drawn meanwhile.
    config = LbrmConfig(statack=StatAckConfig(initial_t_wait=5.0))
    async with AioCluster(GROUP, config, n_receivers=0, n_secondaries=8, enable_statack=True,
                          directory=_directory(5)) as cluster:
        await asyncio.sleep(0.3)  # every secondary has seen that probe
        epochs = [AckerSelectPacket(group=GROUP, epoch=e, p_ack=0.5, k=4) for e in range(1, 9)]
        source = cluster.source_node.address
        patterns = {
            tuple(bool(secondary.handle(select, source, 0.0)) for secondary in cluster.secondaries)
            for select in epochs
        }
        assert patterns - {(False,) * 8, (True,) * 8}, patterns


def test_double_start_rejected():
    asyncio.run(_run_double_start())


async def _run_double_start():
    cluster = AioCluster(GROUP, n_receivers=0, directory=_directory(4))
    await cluster.start()
    try:
        with pytest.raises(RuntimeError):
            await cluster.start()
    finally:
        await cluster.close()
