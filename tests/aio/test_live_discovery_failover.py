"""Expanding-ring discovery under logger failure, on real sockets.

TTL does not scope on loopback — every ring hears every query — so ring
distance is emulated the way the simulator does it: a filter in front of
the far logger drops discovery queries whose carried TTL is below its
ring, exactly as a TTL-expired packet would never arrive.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioCluster, AioNode, GroupDirectory, parse_token
from repro.core.config import DiscoveryConfig, LbrmConfig
from repro.core.discovery import DiscoveryClient
from repro.core.events import DiscoveryExhausted, LoggerDiscovered
from repro.core.logger import LoggerRole, LogServer
from repro.core.packets import DiscoveryQueryPacket

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/discovery/failover"


def _directory(tag: int) -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.46.%d" % tag, free_udp_port())
    return directory


class _RingFilter:
    """Wrap a machine so it only hears discovery queries from ring >= N,
    emulating TTL scoping that loopback multicast cannot provide."""

    def __init__(self, machine, min_ttl: int) -> None:
        self._machine = machine
        self._min_ttl = min_ttl

    def handle(self, packet, src, now):
        if isinstance(packet, DiscoveryQueryPacket) and packet.ttl < self._min_ttl:
            return []
        return self._machine.handle(packet, src, now)

    def poll(self, now):
        return self._machine.poll(now)

    def start(self, now):
        return self._machine.start(now)

    def next_wakeup(self):
        return self._machine.next_wakeup()


async def _start_logger(directory, cfg, *, min_ttl: int = 1) -> tuple[AioNode, LogServer]:
    node = AioNode(directory=directory)
    await node.start()
    logger = LogServer(GROUP, addr_token=node.token, config=cfg,
                       role=LoggerRole.SECONDARY, level=1)
    node.add_machine(_RingFilter(logger, min_ttl) if min_ttl > 1 else logger)
    node.run_machine(logger.start, node.now)
    return node, logger


def test_dead_first_ring_logger_found_in_next_ring():
    asyncio.run(_run_ring_failover())


async def _run_ring_failover():
    directory = _directory(1)
    cfg = LbrmConfig()
    ring1_node, _ = await _start_logger(directory, cfg, min_ttl=1)
    ring2_node, _ = await _start_logger(directory, cfg, min_ttl=2)

    # The nearest logger dies before the receiver goes looking.
    await ring1_node.close()

    client_node = AioNode(directory=directory)
    await client_node.start()
    client = DiscoveryClient(
        GROUP,
        DiscoveryConfig(
            initial_ttl=1, max_ttl=4, query_timeout=0.25,
            ring_retries=1, timeout_backoff=1.5, max_query_timeout=1.0,
        ),
        parse_token=parse_token,
    )
    client_node.add_machine(client)
    client_node.run_machine(client.start, client_node.now)

    try:
        for _ in range(80):
            if client.found is not None or client.exhausted:
                break
            await asyncio.sleep(0.1)
        # Backed off in the silent first ring, then expanded and found
        # the ring-2 secondary.
        assert client.found == ring2_node.address
        assert client.stats["ring_retries"] >= 1
        assert client.stats["queries_sent"] >= 3  # ttl=1, retry, ttl=2
        events = [e for e in client_node.events if isinstance(e, LoggerDiscovered)]
        assert events and events[0].ttl == 2
    finally:
        await ring2_node.close()
        await client_node.close()


def test_all_rings_silent_falls_back_to_static_primary(monkeypatch):
    # Silence every logger's discovery responder: queries go unanswered
    # on the wire even though the loggers are otherwise healthy.
    monkeypatch.setattr(
        LogServer, "_on_discovery", lambda self, packet, src, now: []
    )
    asyncio.run(_run_static_fallback())


async def _run_static_fallback():
    async with AioCluster(
        GROUP,
        n_receivers=2,
        n_secondaries=1,
        use_discovery=True,
        discovery=DiscoveryConfig(initial_ttl=1, max_ttl=2, query_timeout=0.2),
        directory=_directory(2),
    ) as cluster:
        await cluster.wait_discovery(timeout=10.0)
        assert all(c.exhausted for c in cluster.discovery_clients)
        for node in cluster.receiver_nodes:
            assert any(isinstance(e, DiscoveryExhausted) for e in node.events)
        # §2.2.1 fallback: the statically configured primary.
        primary = cluster.primary_node.address
        for receiver in cluster.receivers:
            assert receiver.logger_chain == (primary,)
        # The fallback chain is live: the stream flows end to end.
        await cluster.publish(b"after-fallback")
        for i in range(2):
            delivered = await asyncio.wait_for(cluster.deliveries(i, 1), 5.0)
            assert delivered[0].payload == b"after-fallback"
