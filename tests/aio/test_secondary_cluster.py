"""Site secondary loggers over real UDP: wiring, logging, local repair.

The paper's §2.2.2 hierarchy on actual sockets: receivers NACK their
site logger first, the site logger answers repairs by unicast from its
own log, and the primary only hears about losses the site cannot cover.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioCluster, AioNode, GroupDirectory

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/secondary/e2e"


def _directory(tag: int) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.45.%d" % tag, free_udp_port())
    return directory


def test_receivers_round_robin_across_secondaries():
    asyncio.run(_run_wiring())


async def _run_wiring():
    async with AioCluster(
        GROUP, n_receivers=4, n_secondaries=2, directory=_directory(1)
    ) as cluster:
        sec0 = cluster.secondary_nodes[0].address
        sec1 = cluster.secondary_nodes[1].address
        primary = cluster.primary_node.address
        chains = [r.logger_chain for r in cluster.receivers]
        assert chains == [
            (sec0, primary), (sec1, primary), (sec0, primary), (sec1, primary)
        ]


def test_secondaries_log_the_stream():
    asyncio.run(_run_logging())


async def _run_logging():
    async with AioCluster(
        GROUP, n_receivers=2, n_secondaries=2, directory=_directory(2)
    ) as cluster:
        for i in range(4):
            await cluster.publish(b"tick-%d" % i)
        for i in range(2):
            await asyncio.wait_for(cluster.deliveries(i, 4), 5.0)
        await asyncio.sleep(0.2)
        for secondary in cluster.secondaries:
            assert secondary.primary_seq == 4  # holds 1..4 contiguously


def test_repair_comes_from_site_logger_not_primary():
    asyncio.run(_run_local_repair())


async def _run_local_repair():
    async with AioCluster(
        GROUP, n_receivers=2, n_secondaries=1, directory=_directory(3)
    ) as cluster:
        await cluster.publish(b"seen")
        await asyncio.wait_for(cluster.deliveries(0, 1), 3.0)
        await asyncio.wait_for(cluster.deliveries(1, 1), 3.0)

        # Crash receiver 0's endpoint; packets 2..3 pass it by.
        victim = cluster.receivers[0]
        await cluster.receiver_nodes[0].close()
        await cluster.publish(b"missed-1")
        await cluster.publish(b"missed-2")
        await asyncio.wait_for(cluster.deliveries(1, 2), 3.0)
        await asyncio.sleep(0.2)

        # Restart on a fresh socket: the gap is repaired via the *site*
        # logger (first hop of the chain), unicast from its log.
        reborn = AioNode(directory=cluster.directory)
        await reborn.start()
        cluster.receiver_nodes[0] = reborn
        reborn.machines.append(victim)
        await reborn.run_machine(victim.start, reborn.now)

        recovered = await asyncio.wait_for(cluster.deliveries(0, 2, timeout=5.0), 10.0)
        assert [d.payload for d in recovered] == [b"missed-1", b"missed-2"]

        site = cluster.secondaries[0]
        assert site.stats["nacks_received"] >= 1
        assert site.stats["retrans_unicast"] + site.stats["retrans_multicast"] >= 2
        # The site logger held the data, so the primary heard no NACKs.
        assert cluster.primary.stats["nacks_received"] == 0


def test_cross_group_traffic_dropped_by_name():
    asyncio.run(_run_cross_group())


async def _run_cross_group():
    # Two groups forced onto the SAME multicast address and port — the
    # collision case wildcard binds cross-deliver.  The endpoint's group
    # filter must drop the foreign traffic before it reaches machines.
    directory = GroupDirectory()
    port = free_udp_port()
    directory.register("grp/a", "239.255.45.9", port)
    directory.register("grp/b", "239.255.45.9", port)

    node_a = AioNode(directory=directory)
    node_b = AioNode(directory=directory)
    await node_a.start()
    await node_b.start()
    try:
        node_b.join_group("grp/b")
        async with AioCluster("grp/a", n_receivers=1, directory=directory) as cluster:
            await cluster.publish(b"for-a-only")
            await asyncio.wait_for(cluster.deliveries(0, 1), 3.0)
            await asyncio.sleep(0.2)
            assert node_b.stats["group_mismatches"] >= 1
            assert node_b.stats["rx"] == 0
    finally:
        await node_a.close()
        await node_b.close()


def test_recv_socket_binds_group_address():
    """Where the platform allows it, the kernel (not just the node-level
    name filter) keeps other groups' traffic off a group socket."""
    from repro.aio.udp import make_multicast_recv_socket

    sock = make_multicast_recv_socket("239.255.45.200", free_udp_port())
    try:
        assert sock.getsockname()[0] in ("239.255.45.200", "0.0.0.0")
    finally:
        sock.close()
