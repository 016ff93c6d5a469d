"""LLFT-grade failover over real UDP: tie-breaks and a multi-process soak.

Two gaps the simulator cannot close by construction:

* the promotion tie-break must behave identically when node identities
  are real ``"host:port"`` tokens with kernel-assigned ports rather
  than tidy ``replica0``/``replica1`` names; and
* "zero committed-packet loss across failover" must hold for a receiver
  living in a **different OS process** — its own event loop, its own
  sockets — observing the group purely through the wire.
"""

from __future__ import annotations

import asyncio
import multiprocessing

import pytest

from repro.aio import AioCluster, GroupDirectory
from repro.aio.node import addr_token
from repro.chaos import ChaosOracle
from repro.core.config import LbrmConfig, ReplicationConfig
from repro.core.events import PrimaryFailover
from repro.core.logger import LoggerRole

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/failover-udp/e2e"


def _config() -> LbrmConfig:
    return LbrmConfig(
        replication=ReplicationConfig(primary_timeout=0.5, failover_wait=0.2)
    )


def _directory(tag: int, port: int | None = None) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.48.%d" % tag, port or free_udp_port())
    return directory


# -- tie-break on real node identities -------------------------------------


def test_udp_tie_break_promotes_lowest_token():
    asyncio.run(_run_tie_break())


async def _run_tie_break():
    async with AioCluster(
        GROUP, _config(), n_receivers=1, n_replicas=2, directory=_directory(1)
    ) as cluster:
        oracle = ChaosOracle(cluster)
        oracle.install()

        await cluster.publish(b"tie-1")
        await cluster.publish(b"tie-2")
        # Force an exact tie: both replicas must hold the full prefix
        # before the primary dies, so their failover votes are equal.
        for _ in range(50):
            if all(r.primary_seq == 2 for r in cluster.replicas):
                break
            await asyncio.sleep(0.1)
        assert all(r.primary_seq == 2 for r in cluster.replicas)

        await cluster.primary_node.close()
        await cluster.publish(b"tie-3")  # unackable: triggers the failover

        # The tie must break to the lowest "host:port" token — computed
        # here exactly the way the sender computes it, so the expectation
        # holds whatever ports the kernel handed out.
        tokens = {addr_token(n.address): n.address for n in cluster.replica_nodes}
        expected = tokens[min(tokens)]
        for _ in range(80):
            if cluster.sender.primary == expected:
                break
            await asyncio.sleep(0.1)
        assert cluster.sender.primary == expected

        events = [e for e in cluster.source_node.events if isinstance(e, PrimaryFailover)]
        assert len(events) == 1
        assert events[0].new_primary == expected
        assert events[0].log_epoch == 2

        winner = cluster.replicas[cluster.replica_nodes.index(
            next(n for n in cluster.replica_nodes if n.address == expected)
        )]
        for _ in range(50):
            if winner.role is LoggerRole.PRIMARY:
                break
            await asyncio.sleep(0.1)
        assert winner.role is LoggerRole.PRIMARY
        assert winner.log_epoch == 2

        for _ in range(50):
            if cluster.sender.released_up_to == 3:
                break
            await asyncio.sleep(0.1)
        assert cluster.sender.released_up_to == 3
        await asyncio.sleep(0.2)
        oracle.assert_ok()


# -- multi-process soak: an out-of-process receiver across a failover ------


def _receiver_child(conn, group, mcast_ip, mcast_port, source_addr, chain, expect, timeout):
    """Child-process entry point: an independent event loop joins the
    multicast group as one more receiver and reports what it delivered."""
    import asyncio as aio

    from repro.aio import GroupDirectory as Directory
    from repro.aio.node import AioNode, parse_token
    from repro.core.config import LbrmConfig as Config
    from repro.core.receiver import LbrmReceiver

    async def run():
        config = Config()
        directory = Directory()
        directory.register(group, mcast_ip, mcast_port)
        node = AioNode(directory=directory)
        await node.start()
        receiver = LbrmReceiver(
            group, config.receiver,
            logger_chain=tuple(tuple(a) for a in chain),
            source=tuple(source_addr),
            heartbeat=config.heartbeat,
            parse_token=parse_token,
        )
        node.add_machine(receiver)
        node.run_machine(receiver.start, node.now)
        conn.send("ready")
        loop = aio.get_running_loop()
        deadline = loop.time() + timeout
        got = []
        while len(got) < expect and loop.time() < deadline:
            try:
                delivery = await aio.wait_for(node.delivery_queue.get(), 0.5)
            except aio.TimeoutError:
                continue
            got.append(delivery.seq)
        conn.send((sorted(got), sorted(receiver.missing)))
        await node.close()

    aio.run(run())
    conn.close()


def test_out_of_process_receiver_survives_promotion():
    asyncio.run(_run_multiprocess_soak())


async def _run_multiprocess_soak():
    total = 6
    mcast_ip, mcast_port = "239.255.48.2", free_udp_port()
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    async with AioCluster(
        GROUP, _config(), n_receivers=1, n_replicas=1,
        directory=_directory(2, mcast_port),
    ) as cluster:
        oracle = ChaosOracle(cluster)
        oracle.install()
        proc = ctx.Process(
            target=_receiver_child,
            args=(
                child_conn, GROUP, mcast_ip, mcast_port,
                cluster.source_node.address,
                [cluster.primary_node.address],
                total, 30.0,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        loop = asyncio.get_running_loop()
        ready = await asyncio.wait_for(
            loop.run_in_executor(None, parent_conn.recv), 30.0
        )
        assert ready == "ready"

        for i in range(3):
            await cluster.publish(b"pre-%d" % i)
            await asyncio.sleep(0.05)
        await asyncio.sleep(0.3)  # replication catches up: seqs 1-3 committed

        await cluster.primary_node.close()
        for i in range(3):
            await cluster.publish(b"post-%d" % i)
            await asyncio.sleep(0.05)

        replica_addr = cluster.replica_nodes[0].address
        for _ in range(80):
            if cluster.sender.primary == replica_addr:
                break
            await asyncio.sleep(0.1)
        assert cluster.sender.primary == replica_addr
        for _ in range(80):
            if cluster.sender.released_up_to == total:
                break
            await asyncio.sleep(0.1)
        assert cluster.sender.released_up_to == total

        got, missing = await asyncio.wait_for(
            loop.run_in_executor(None, parent_conn.recv), 35.0
        )
        # Zero committed-packet loss, observed from outside the process:
        # every sequence the sender released arrived in the child.
        assert got == list(range(1, total + 1))
        assert missing == []
        proc.join(10.0)
        assert proc.exitcode == 0

        # The in-process receiver saw the same unbroken stream, and the
        # live oracle (I1-I6) signs off on the whole run.
        await asyncio.wait_for(cluster.deliveries(0, total, timeout=10.0), 15.0)
        await asyncio.sleep(0.2)
        oracle.assert_ok()
