"""End-to-end asyncio tests: the real UDP transport on loopback.

These exercise actual sockets (unicast + multicast join on 127.0.0.1).
Timings are generous: wall-clock tests on shared CI machines jitter.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioNode, GroupDirectory, addr_token, parse_token
from repro.core.config import LbrmConfig, ReceiverConfig
from repro.core.logger import LoggerRole, LogServer
from repro.core.receiver import LbrmReceiver
from repro.core.sender import LbrmSender

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/aio/e2e"


def test_addr_token_roundtrip():
    assert parse_token(addr_token(("127.0.0.1", 4242))) == ("127.0.0.1", 4242)


def test_parse_token_rejects_garbage():
    with pytest.raises(ValueError):
        parse_token("no-port")
    with pytest.raises(ValueError):
        parse_token("host:notanumber")


async def _build_trio(directory: GroupDirectory, cfg: LbrmConfig):
    """Start logger, sender, receiver nodes wired together."""
    logger_node = AioNode(directory=directory)
    await logger_node.start()
    logger = LogServer(GROUP, addr_token=logger_node.token, config=cfg,
                       role=LoggerRole.PRIMARY, level=0)
    logger_node.machines.append(logger)
    await logger_node.run_machine(logger.start, logger_node.now)

    sender_node = AioNode(directory=directory)
    await sender_node.start()
    sender = LbrmSender(GROUP, cfg, primary=logger_node.address,
                        addr_token=sender_node.token)
    sender_node.machines.append(sender)
    await sender_node.run_machine(sender.start, sender_node.now)
    logger.set_source(sender_node.address)

    rx_node = AioNode(directory=directory)
    await rx_node.start()
    receiver = LbrmReceiver(GROUP, cfg.receiver,
                            logger_chain=(logger_node.address,),
                            heartbeat=cfg.heartbeat, parse_token=parse_token)
    rx_node.machines.append(receiver)
    await rx_node.run_machine(receiver.start, rx_node.now)

    return (logger_node, logger), (sender_node, sender), (rx_node, receiver)


def test_multicast_delivery_and_log_ack():
    asyncio.run(_run_multicast_delivery())


async def _run_multicast_delivery():
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.42.1", free_udp_port())
    cfg = LbrmConfig()
    (ln, logger), (sn, sender), (rn, receiver) = await _build_trio(directory, cfg)
    try:
        await asyncio.sleep(0.05)
        await sn.send(sender, b"real multicast payload")
        delivery = await asyncio.wait_for(rn.delivery_queue.get(), 2.0)
        assert delivery.payload == b"real multicast payload"
        assert not delivery.recovered
        # Give the LOG_ACK a moment to come back.
        await asyncio.sleep(0.1)
        assert sender.released_up_to == 1
        assert 1 in logger.log
    finally:
        for node in (ln, sn, rn):
            await node.close()


def test_heartbeats_flow_over_udp():
    asyncio.run(_run_heartbeats())


async def _run_heartbeats():
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.42.2", free_udp_port())
    cfg = LbrmConfig()
    (ln, logger), (sn, sender), (rn, receiver) = await _build_trio(directory, cfg)
    try:
        await asyncio.sleep(0.05)
        await sn.send(sender, b"x")
        await asyncio.wait_for(rn.delivery_queue.get(), 2.0)
        await asyncio.sleep(0.4)  # h_min=0.25: at least one heartbeat
        assert receiver.stats["heartbeats_received"] >= 1
    finally:
        for node in (ln, sn, rn):
            await node.close()


def test_recovery_over_udp_after_simulated_drop():
    asyncio.run(_run_recovery())


async def _run_recovery():
    """Force a real loss: the receiver leaves the multicast group while one
    packet is sent, rejoins, and the next packet reveals the gap — NACK
    recovery then pulls the missed payload from the logger over UDP."""
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.42.3", free_udp_port())
    cfg = LbrmConfig()
    (ln, logger), (sn, sender), (rn, receiver) = await _build_trio(directory, cfg)
    # Faster NACK retry so the test completes quickly.
    receiver._config = ReceiverConfig(nack_retry=0.2)

    try:
        await asyncio.sleep(0.05)
        await sn.send(sender, b"baseline")  # seq 1: establishes tracking
        d = await asyncio.wait_for(rn.delivery_queue.get(), 2.0)
        assert d.payload == b"baseline"

        rn.leave_group(GROUP)  # walk out of radio range
        await asyncio.sleep(0.02)
        await sn.send(sender, b"missed")  # seq 2: dropped for this receiver
        await asyncio.sleep(0.05)
        rn.join_group(GROUP)  # reconnect
        await asyncio.sleep(0.02)

        await sn.send(sender, b"fresh")  # seq 3 reveals the gap at 2
        payloads = set()
        for _ in range(2):
            d = await asyncio.wait_for(rn.delivery_queue.get(), 3.0)
            payloads.add((d.payload, d.recovered))
        assert (b"fresh", False) in payloads
        assert (b"missed", True) in payloads
        assert receiver.stats["recoveries"] == 1
    finally:
        for node in (ln, sn, rn):
            await node.close()
