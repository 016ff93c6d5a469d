"""AioNode through the one action interpreter, over real sockets.

A ``JoinGroup`` returned by a handler takes effect before the datagram
that caused it is done with, a closed node joins nothing, and a node
closed by its first machine hides the packet from the rest — the same
walk :class:`~repro.simnet.node.SimNode` makes.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.aio import AioNode, GroupDirectory
from repro.core.actions import Deliver, JoinGroup, Notify
from repro.core.events import LossDetected
from repro.core.machine import ProtocolMachine
from repro.core.packets import DataPacket, encode

from tests.aio._netutil import free_udp_port

pytestmark = pytest.mark.network

GROUP = "test/aio/executor"
JOINED = "test/aio/executor/joined"
PEER = ("127.0.0.1", 9)


def _directory() -> GroupDirectory:
    directory = GroupDirectory()
    directory.register(JOINED, "239.255.46.7", free_udp_port())
    return directory


def _datagram(seq: int) -> bytes:
    return encode(DataPacket(group=GROUP, seq=seq, payload=b"x"))


class _Joiner(ProtocolMachine):
    """Asks to join ``JOINED`` on every packet, as a promoted replica or a
    receiver entering the retransmission channel does."""

    def handle(self, packet, src, now):
        return [JoinGroup(group=JOINED)]


class _Echo(ProtocolMachine):
    """Delivers every data packet, then reports a loss."""

    def handle(self, packet, src, now):
        return [Deliver(seq=packet.seq, payload=packet.payload),
                Notify(LossDetected(seqs=(packet.seq,)))]


class _Counting(ProtocolMachine):
    def __init__(self) -> None:
        super().__init__()
        self.seen = 0

    def handle(self, packet, src, now):
        self.seen += 1
        return []


def _close_now(node: AioNode) -> None:
    """Close ``node`` from a synchronous tap: run ``close()`` through its
    teardown, up to and past its final ``sleep(0)``."""
    closing = node.close()
    closing.send(None)
    with contextlib.suppress(StopIteration):
        closing.send(None)


def test_a_join_returned_by_handle_is_done_before_the_datagram_returns():
    async def run():
        node = AioNode([_Joiner()], directory=_directory())
        await node.start()
        try:
            node._datagram(_datagram(1), PEER)
            assert JOINED in node._group_socks
        finally:
            await node.close()

    asyncio.run(run())


def test_a_closed_node_joins_nothing():
    async def run():
        node = AioNode([_Joiner()], directory=_directory())
        await node.start()
        node._datagram(_datagram(1), PEER)  # joins; close() must release it
        await node.close()
        assert node._group_socks == {}
        node.join_group(JOINED)
        assert node._group_socks == {}
        await asyncio.sleep(0)
        assert node._group_socks == {}

    asyncio.run(run())


def test_a_node_closed_by_its_first_machine_hides_the_packet_from_the_rest():
    """The aio twin of the SimNode guard: once an executed action's tap
    has closed the node, the remaining machines never see the packet and
    no wakeup is armed; an open node shows every machine every packet."""

    async def run():
        second = _Counting()
        node = AioNode([_Echo(), second])
        await node.start()
        node.on_event = lambda event, now: _close_now(node)
        node._datagram(_datagram(1), PEER)
        assert not node.alive
        assert [d.seq for d in node.delivered] == [1]  # the Deliver ahead of the Notify ran
        assert second.seen == 0
        assert node._wakeup_handle is None

        second = _Counting()
        node = AioNode([_Echo(), second])
        await node.start()
        try:
            node._datagram(_datagram(2), PEER)
            assert node.alive and second.seen == 1
        finally:
            await node.close()

    asyncio.run(run())
