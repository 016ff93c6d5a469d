"""Statistical acknowledgement over real UDP with live secondary loggers."""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioNode, GroupDirectory, parse_token
from repro.core.config import LbrmConfig, StatAckConfig
from repro.core.events import EpochStarted
from repro.core.logger import LoggerRole, LogServer
from repro.core.sender import LbrmSender

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/aio/statack"


def test_statack_full_cycle_over_udp():
    asyncio.run(_run())


async def _run():
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.47.1", free_udp_port())
    cfg = LbrmConfig(statack=StatAckConfig(
        k_ackers=10, initial_t_wait=0.2, epoch_length=1000,
    ))

    primary_node = AioNode(directory=directory)
    await primary_node.start()
    primary = LogServer(GROUP, addr_token=primary_node.token, config=cfg,
                        role=LoggerRole.PRIMARY, level=0)
    primary_node.add_machine(primary)
    primary_node.run_machine(primary.start, primary_node.now)

    sender_node = AioNode(directory=directory)
    await sender_node.start()
    sender = LbrmSender(GROUP, cfg, primary=primary_node.address,
                        enable_statack=True, addr_token=sender_node.token)
    sender_node.add_machine(sender)
    primary.set_source(sender_node.address)

    # Three secondary loggers (potential Designated Ackers).
    secondary_nodes = []
    for i in range(3):
        node = AioNode(directory=directory)
        await node.start()
        secondary = LogServer(GROUP, addr_token=node.token, config=cfg,
                              role=LoggerRole.SECONDARY,
                              parent=primary_node.address, level=1)
        secondary.set_source(sender_node.address)
        node.add_machine(secondary)
        node.run_machine(secondary.start, node.now)
        secondary_nodes.append(node)

    # Start the sender last so its bootstrap probes find the loggers.
    sender_node.run_machine(sender.start, sender_node.now)

    try:
        sa = sender.statack
        assert sa is not None
        # Wait for bootstrap probing + first epoch over real sockets.
        for _ in range(80):
            if sender_node.events_of(EpochStarted) and sa.designated_ackers:
                break
            await asyncio.sleep(0.1)
        assert sa.current_epoch == sa.epoch >= 1  # active, no selection under way
        # with only 3 loggers p_ack caps at 1: all three volunteer
        assert len(sa.designated_ackers) == 3
        assert sa.group_size_estimate == pytest.approx(3, abs=1.5)

        acks_before = sa.stats["acks_received"]
        sender_node.send_app(sender, b"statack over UDP")
        await asyncio.sleep(0.6)
        assert sa.stats["acks_received"] - acks_before == 3
        assert sender.stats["remulticasts"] == 0
    finally:
        for node in [primary_node, sender_node, *secondary_nodes]:
            await node.close()
