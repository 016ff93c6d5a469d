"""Receiver crash/restart over real UDP.

The chaos crash+restart primitive on real sockets: a receiver's node
crashes mid-stream (its socket drops what arrives), traffic continues,
and the node's ``restart`` brings the machine back — keeping its tracker,
rebuilding its volatile state — and the log-based recovery path (NACK →
logger retransmission) must close the gap it slept through.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioCluster, GroupDirectory

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/crash-restart/e2e"


def _directory(tag: int) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.44.%d" % tag, free_udp_port())
    return directory


def test_receiver_crash_restart_recovers_gap():
    asyncio.run(_run_crash_restart())


async def _run_crash_restart():
    async with AioCluster(GROUP, n_receivers=2, directory=_directory(1)) as cluster:
        await asyncio.sleep(0.1)
        await cluster.publish(b"before")
        await asyncio.wait_for(cluster.deliveries(0, 1), 3.0)
        await asyncio.wait_for(cluster.deliveries(1, 1), 3.0)

        # Crash receiver 0's node; the machine object survives.
        victim = cluster.receivers[0]
        cluster.receiver_nodes[0].crash()

        # Traffic continues while the node is dark.
        await cluster.publish(b"during-1")
        await cluster.publish(b"during-2")
        deliveries = await asyncio.wait_for(cluster.deliveries(1, 2), 3.0)
        assert [d.payload for d in deliveries] == [b"during-1", b"during-2"]
        await asyncio.sleep(0.1)
        assert 3 in cluster.primary.log  # the log holds what the victim missed

        # Restart: the machine rebuilds its volatile state.
        cluster.receiver_nodes[0].restart()

        # The next heartbeat advertises seq 3; the receiver NACKs the
        # primary log and recovers both missed packets in order.
        recovered = await asyncio.wait_for(cluster.deliveries(0, 2, timeout=5.0), 10.0)
        assert [d.payload for d in recovered] == [b"during-1", b"during-2"]
        assert victim.missing == frozenset()
        assert victim.tracker.highest == 3
        assert victim.stats["nacks_sent"] >= 1
