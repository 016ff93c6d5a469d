"""k-level logger trees over real UDP (DESIGN §11).

``AioCluster(depth=3, ...)`` inserts interior repair hubs between the
site secondaries and the primary: secondaries escalate their own holes
to their hub, receivers carry the full leaf → hub → primary chain, and
a repair for a site-local loss never reaches the primary.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioCluster, GroupDirectory
from repro.chaos import ChaosOracle
from repro.core.errors import ConfigError

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/hierarchy/e2e"


def _directory(tag: int) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.47.%d" % tag, free_udp_port())
    return directory


def test_depth_three_chains_walk_hub_then_primary():
    asyncio.run(_run_wiring())


async def _run_wiring():
    async with AioCluster(
        GROUP, n_receivers=4, n_secondaries=4, depth=3, fanout=2, directory=_directory(1)
    ) as cluster:
        # 4 leaves at fanout 2 -> 2 interior hubs under the primary.
        assert len(cluster.interior_nodes) == 2
        primary = cluster.primary_node.address
        hub_addresses = {node.address for node in cluster.interior_nodes}
        for i, receiver in enumerate(cluster.receivers):
            chain = receiver.logger_chain
            assert len(chain) == 3
            assert chain[0] == cluster.secondary_nodes[i % 4].address
            assert chain[1] in hub_addresses
            assert chain[-1] == primary
        # Secondaries escalate to their hub, hubs to the primary.
        for secondary in cluster.secondaries:
            assert secondary._parent in hub_addresses
        for hub in cluster.interior_loggers:
            assert hub._parent == primary


def test_hubs_log_the_stream():
    asyncio.run(_run_logging())


async def _run_logging():
    async with AioCluster(
        GROUP, n_receivers=2, n_secondaries=2, depth=3, fanout=2, directory=_directory(2)
    ) as cluster:
        for i in range(4):
            await cluster.publish(b"tick-%d" % i)
        for i in range(2):
            await asyncio.wait_for(cluster.deliveries(i, 4), 5.0)
        await asyncio.sleep(0.2)
        for hub in cluster.interior_loggers:
            assert hub.primary_seq == 4  # holds 1..4 contiguously


def test_site_loss_repairs_without_touching_primary():
    asyncio.run(_run_local_repair())


async def _run_local_repair():
    async with AioCluster(
        GROUP, n_receivers=2, n_secondaries=2, depth=3, fanout=2, directory=_directory(3)
    ) as cluster:
        await cluster.publish(b"seen")
        for i in range(2):
            await asyncio.wait_for(cluster.deliveries(i, 1), 3.0)

        cluster.receiver_nodes[0].pause()
        await cluster.publish(b"missed-1")
        await cluster.publish(b"missed-2")
        await asyncio.wait_for(cluster.deliveries(1, 2), 3.0)
        await asyncio.sleep(0.2)
        cluster.receiver_nodes[0].resume()

        recovered = await asyncio.wait_for(cluster.deliveries(0, 2, timeout=5.0), 10.0)
        assert [d.payload for d in recovered] == [b"missed-1", b"missed-2"]
        # The site leaf held the data: neither its hub nor the primary
        # heard a NACK for this loss.
        assert cluster.primary.stats["nacks_received"] == 0
        for hub in cluster.interior_loggers:
            assert hub.stats["nacks_received"] == 0


def test_discovered_secondary_brings_its_hub_chain():
    asyncio.run(_run_discovered_chain())


async def _run_discovered_chain():
    """Discovery installs the found secondary's whole tree chain, so the
    receiver escalates through the interior hub, not past it; the live
    oracle holds the hubs to I3 log completeness like any tree logger."""
    async with AioCluster(
        GROUP, n_receivers=2, n_secondaries=2, depth=3, fanout=2,
        use_discovery=True, directory=_directory(4),
    ) as cluster:
        oracle = ChaosOracle(cluster)
        oracle.install()
        await cluster.wait_discovery()
        leaf_addresses = [node.address for node in cluster.secondary_nodes]
        for receiver in cluster.receivers:
            chain = receiver.logger_chain
            # Loopback TTL does not scope: every logger answers and the
            # deepest level in range (a site secondary) wins.
            leaf = leaf_addresses.index(chain[0])
            hub = cluster.members[cluster.tree.parent(f"leaf{leaf}")][1].address
            assert chain == (chain[0], hub, cluster.primary_node.address)
        for i in range(3):
            await cluster.publish(b"tick-%d" % i)
        for i in range(2):
            await asyncio.wait_for(cluster.deliveries(i, 3), 5.0)
        await asyncio.sleep(0.2)
        oracle.assert_ok()


def test_depth_requires_secondaries():
    with pytest.raises(ConfigError):
        AioCluster(GROUP, n_receivers=1, n_secondaries=0, depth=3)
    with pytest.raises(ConfigError):
        AioCluster(GROUP, n_receivers=1, depth=1)
