"""Expanding-ring discovery and statack participation over real UDP."""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioNode, GroupDirectory, parse_token
from repro.core.config import DiscoveryConfig, LbrmConfig
from repro.core.discovery import DiscoveryClient
from repro.core.events import DiscoveryExhausted, LoggerDiscovered
from repro.core.logger import LoggerRole, LogServer

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/aio/discovery"


def test_discovery_over_udp():
    asyncio.run(_run_discovery())


async def _run_discovery():
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.44.1", free_udp_port())
    cfg = LbrmConfig()

    logger_node = AioNode(directory=directory)
    await logger_node.start()
    logger = LogServer(GROUP, addr_token=logger_node.token, config=cfg,
                       role=LoggerRole.SECONDARY, level=1)
    logger_node.add_machine(logger)
    logger_node.run_machine(logger.start, logger_node.now)

    client_node = AioNode(directory=directory)
    await client_node.start()
    client = DiscoveryClient(GROUP, DiscoveryConfig(initial_ttl=1, query_timeout=0.3),
                             parse_token=parse_token)
    client_node.add_machine(client)
    # The client must hear replies on its unicast socket and send queries
    # to the group; it also must be able to receive on the group (no-op
    # here but realistic).
    client_node.join_group(GROUP)
    client_node.run_machine(client.start, client_node.now)

    try:
        for _ in range(40):
            if not client.searching:
                break
            await asyncio.sleep(0.1)
        events = [e for e in client_node.events if isinstance(e, LoggerDiscovered)]
        assert [e.logger for e in events] == [logger_node.address]
        assert client.found_level == 1
    finally:
        await logger_node.close()
        await client_node.close()


def test_discovery_exhausts_with_no_logger():
    asyncio.run(_run_exhaustion())


async def _run_exhaustion():
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.44.2", free_udp_port())
    client_node = AioNode(directory=directory)
    await client_node.start()
    client = DiscoveryClient(GROUP, DiscoveryConfig(initial_ttl=1, max_ttl=2, query_timeout=0.2),
                             parse_token=parse_token)
    client_node.add_machine(client)
    client_node.run_machine(client.start, client_node.now)
    try:
        for _ in range(30):
            if not client.searching:
                break
            await asyncio.sleep(0.1)
        assert [e for e in client_node.events if isinstance(e, DiscoveryExhausted)]
        assert client.found_level is None
        assert not [e for e in client_node.events if isinstance(e, LoggerDiscovered)]
    finally:
        await client_node.close()
