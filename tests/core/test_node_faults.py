"""The fault contract of :class:`~repro.core.node.MachineNode`, one
scenario on both runtimes.

A crash drops inbound traffic and disarms timers; a restart calls each
machine's ``restart`` once and re-arms; a pause holds timers and drops
inbound traffic, and a resume re-arms; a ``clock_skew`` write shifts the
clock the machines read and re-arms.  The sim row runs in tier-1; the aio
row opens a real UDP socket and feeds its datagram path directly.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AioNode
from repro.core.actions import SendUnicast
from repro.core.machine import ProtocolMachine
from repro.core.packets import DataPacket, encode
from repro.simnet.engine import Simulator
from repro.simnet.node import SimNode
from repro.simnet.topology import Network

PEER = ("127.0.0.1", 9)


class _Probe(ProtocolMachine):
    """Records the machine time of each packet, fired timer and restart."""

    def __init__(self) -> None:
        super().__init__()
        self.handled: list[float] = []
        self.fired: list[float] = []
        self.restarts = 0

    def restart(self, now):
        self.restarts += 1
        return super().restart(now)

    def handle(self, packet, src, now):
        self.handled.append(now)
        return []

    def poll(self, now):
        self.fired.extend(now for _ in self.timers.pop_due(now))
        return []


class _Sim:
    unit = 1.0

    def __init__(self, machines) -> None:
        self.sim = Simulator()
        net = Network(self.sim)
        self.node = SimNode(net, net.add_host("h1", net.add_site("s0")), machines)

    async def open(self) -> None:
        self.node.start()

    async def wait(self, dt: float) -> None:
        self.sim.run_until(self.sim.now + dt)

    def inject(self) -> None:
        self.node.receive(DataPacket(group="g", seq=1, payload=b"x"), "peer", self.sim.now)

    async def close(self) -> None:
        pass


class _Aio:
    unit = 0.1

    def __init__(self, machines) -> None:
        self.node = AioNode(machines)

    async def open(self) -> None:
        await self.node.start()

    async def wait(self, dt: float) -> None:
        await asyncio.sleep(dt)

    def inject(self) -> None:
        self.node._datagram(encode(DataPacket(group="g", seq=1, payload=b"x")), PEER)

    async def close(self) -> None:
        await self.node.close()


async def _scenario(runtime) -> None:
    a, b = _Probe(), _Probe()
    rt = runtime([a, b])
    node, u = rt.node, rt.unit
    await rt.open()
    try:
        def arm(delay: float) -> None:  # a's one timer, ``delay`` ahead on its clock
            a.timers.set("t", node.now + node.clock_skew + delay)
            node.run_machine(list)

        # A crash drops inbound traffic and disarms timers.
        arm(u)
        node.crash()
        assert not node.alive
        rt.inject()
        await rt.wait(2 * u)
        assert a.handled == b.handled == [] and a.fired == []

        # A restart calls each machine's restart once and re-arms: the
        # timer that came due while the node was down fires now.
        node.restart()
        assert node.alive and a.restarts == b.restarts == 1
        await rt.wait(u / 2)
        assert len(a.fired) == 1
        rt.inject()
        assert len(a.handled) == len(b.handled) == 1

        # A pause holds timers and drops inbound traffic; resume re-arms.
        arm(u)
        node.pause()
        assert not node.alive
        rt.inject()
        await rt.wait(2 * u)
        assert len(a.handled) == 1 and len(a.fired) == 1
        node.resume()
        await rt.wait(u / 2)
        assert len(a.fired) == 2

        # A skew write shifts the machines' clock and re-arms: a deadline
        # 3u ahead on the old clock is 1u ahead on the new one.
        arm(3 * u)
        node.clock_skew = 2 * u
        await rt.wait(1.5 * u)
        assert len(a.fired) == 3
        rt.inject()
        assert a.handled[-1] - node.now == pytest.approx(2 * u, abs=u / 10)
    finally:
        await rt.close()


@pytest.mark.parametrize("runtime", [_Sim, pytest.param(_Aio, marks=pytest.mark.network)],
                         ids=["sim", "aio"])
def test_the_fault_contract(runtime):
    asyncio.run(_scenario(runtime))


class _Greeter(_Probe):
    """Its restart unicasts, which a closed node has no socket for."""

    def restart(self, now):
        super().restart(now)
        return [SendUnicast(dest=PEER, packet=DataPacket(group="g", seq=1, payload=b"x"))]


@pytest.mark.parametrize("bound", [False, pytest.param(True, marks=pytest.mark.network)],
                         ids=["unbound", "bound"])
def test_a_closed_aio_node_stays_down(bound):
    """``close`` crashes the node for good: a later ``restart`` is a no-op."""
    machine = _Greeter()
    node = AioNode([machine])

    async def close_then_restart() -> None:
        if bound:
            await node.start()
        await node.close()
        node.restart()

    asyncio.run(close_then_restart())
    assert node.crashed and not node.alive
    assert node.machines == [] and machine.restarts == 0
