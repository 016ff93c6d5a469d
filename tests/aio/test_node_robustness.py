"""AioNode robustness: garbage datagrams, group lifecycle, stats."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.aio import AioNode, GroupDirectory
from repro.core.config import LbrmConfig
from repro.core.receiver import LbrmReceiver

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/aio/robust"


def test_garbage_datagrams_counted_not_fatal():
    asyncio.run(_run_garbage())


async def _run_garbage():
    directory = GroupDirectory()
    node = AioNode(directory=directory)
    await node.start()
    rx = LbrmReceiver(GROUP, LbrmConfig().receiver, logger_chain=())
    node.add_machine(rx)
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for payload in (b"", b"garbage", b"LB\x01\xff???", b"\x00" * 64):
            sock.sendto(payload, node.address)
        sock.close()
        await asyncio.sleep(0.2)
        assert node.stats["decode_errors"] >= 3  # empty UDP payloads may not arrive
        assert node.stats["rx"] == 0  # nothing valid got through
    finally:
        await node.close()


def test_join_is_idempotent_and_leave_unknown_is_noop():
    asyncio.run(_run_group_lifecycle())


async def _run_group_lifecycle():
    directory = GroupDirectory()
    directory.register(GROUP, "239.255.46.1", free_udp_port())
    node = AioNode(directory=directory)
    await node.start()
    try:
        node.join_group(GROUP)
        node.join_group(GROUP)  # second join: no error, one socket
        node.leave_group(GROUP)
        node.leave_group(GROUP)  # double leave: no-op
        node.leave_group("never/joined")
    finally:
        await node.close()


def test_address_before_start_raises():
    node = AioNode()
    with pytest.raises(RuntimeError):
        _ = node.address


def test_close_cancels_wakeups():
    asyncio.run(_run_close())


async def _run_close():
    node = AioNode()
    await node.start()
    rx = LbrmReceiver(GROUP, LbrmConfig().receiver, logger_chain=())
    node.add_machine(rx)
    node.run_machine(rx.start, node.now)  # arms the MaxIT watchdog
    await node.close()
    # after close, pending timers must not fire into dead transports
    await asyncio.sleep(0.1)
    assert node.stats["socket_errors"] == 0
