#!/usr/bin/env python3
"""A hierarchical LBRM cluster on real UDP — discovery, site logger, oracle.

Builds the paper's §2.2.2 shape in miniature on loopback multicast:
a source, a primary logger with one replica, one *site secondary*
logger, and three receivers.  The receivers locate their logger at
runtime with expanding-ring discovery (§2.2.1) rather than static
wiring, the site secondary collapses their NACKs and answers repairs
locally, and the whole run is graded live against the protocol
invariants I1–I4 by the same judgement the simulator's chaos campaign
uses.  Mid-stream the site logger is killed; the stream (and the
invariants) must survive, because every receiver's chain escalates to
the primary.

Run:  python examples/asyncio_cluster.py
"""

from __future__ import annotations

import asyncio

from repro.aio.cluster import AioCluster
from repro.chaos import ChaosOracle
from repro.core.config import DiscoveryConfig, LbrmConfig

GROUP = "live/cluster/1"


async def main() -> None:
    cfg = LbrmConfig()
    cluster = AioCluster(
        GROUP,
        cfg,
        n_receivers=3,
        n_secondaries=1,
        n_replicas=1,
        use_discovery=True,
        discovery=DiscoveryConfig(initial_ttl=1, query_timeout=0.3),
    )
    async with cluster:
        maddr, mport = cluster.directory.resolve(GROUP)
        print(f"group {GROUP!r} -> multicast {maddr}:{mport}")
        print(f"primary logger   {cluster.primary_node.token}")
        print(f"site secondary   {cluster.secondary_nodes[0].token}")
        print(f"log replica      {cluster.replica_nodes[0].token}")

        oracle = ChaosOracle(cluster)
        oracle.install()

        await cluster.wait_discovery(timeout=10.0)
        for i, receiver in enumerate(cluster.receivers):
            chain = " -> ".join(f"{h}:{p}" for h, p in receiver.logger_chain)
            print(f"rx{i} discovered recovery chain: {chain}")

        for i in range(4):
            await cluster.publish(f"tick-{i}".encode())
            await asyncio.sleep(0.05)
        for i in range(3):
            await cluster.deliveries(i, 4, timeout=5.0)
        print("4 packets delivered to all receivers via the site logger")

        # Kill the site logger: receivers keep the primary as their
        # escalation target, so the stream must not miss a beat.
        await cluster.secondary_nodes[0].close()
        print("site secondary killed — escalating to primary")
        for i in range(4, 8):
            await cluster.publish(f"tick-{i}".encode())
            await asyncio.sleep(0.05)
        for i in range(3):
            await cluster.deliveries(i, 4, timeout=5.0)
        print("4 more packets delivered with the site logger dead")

        await asyncio.sleep(0.3)
        oracle.assert_ok()
        print("invariants I1-I4 (gap-free delivery, MaxIT bound, log safety, "
              "monotone promotion): all clean")


if __name__ == "__main__":
    asyncio.run(main())
