"""SimNode action execution, PacketTrace accounting, RNG streams."""

from __future__ import annotations

import pytest

from repro.core.actions import Deliver, JoinGroup, Notify, SendMulticast, SendUnicast
from repro.core.events import LossDetected
from repro.core.machine import ProtocolMachine
from repro.core.packets import DataPacket, NackPacket, PacketType, PrimaryQueryPacket
from repro.simnet.engine import Simulator
from repro.simnet.node import SimNode
from repro.simnet.rng import RngStreams
from repro.simnet.topology import Network
from repro.simnet.trace import PacketTrace


class Echo(ProtocolMachine):
    """Test machine: joins on start, echoes data back as unicast, fires
    a poll action at a fixed deadline."""

    def __init__(self, group="g", wake_at=None):
        super().__init__()
        self._group = group
        self.polled_at: list[float] = []
        if wake_at is not None:
            self.timers.set(("wake",), wake_at)

    def start(self, now):
        return [JoinGroup(group=self._group)]

    def handle(self, packet, src, now):
        if isinstance(packet, DataPacket):
            return [
                SendUnicast(dest=src, packet=PrimaryQueryPacket(group=self._group)),
                Deliver(seq=packet.seq, payload=packet.payload),
                Notify(LossDetected(seqs=(1,))),
            ]
        return []

    def poll(self, now):
        for key in self.timers.pop_due(now):
            self.polled_at.append(now)
        return []


def build():
    sim = Simulator()
    net = Network(sim)
    site = net.add_site("s0")
    h1 = net.add_host("h1", site)
    h2 = net.add_host("h2", site)
    return sim, net, h1, h2


def test_start_executes_join():
    sim, net, h1, h2 = build()
    node = SimNode(net, h1, [Echo()])
    node.start()
    # Joined: a multicast to the group reaches h1 (and its data is delivered).
    net.send_multicast("h2", "g", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    assert [d.seq for d in node.delivered] == [1]


def test_receive_dispatches_and_executes_actions():
    sim, net, h1, h2 = build()
    n1 = SimNode(net, h1, [Echo()])
    n2 = SimNode(net, h2, [Echo()])
    n1.start()
    n2.start()
    net.send_unicast("h2", "h1", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    # h1 delivered locally and echoed a unicast back to h2
    assert n1.delivered[0].payload == b"x"
    assert isinstance(n1.events[0], LossDetected)
    assert net.stats["delivered"] == 2  # the data packet, and the echo back to h2


def test_wakeup_scheduling():
    sim, net, h1, h2 = build()
    machine = Echo(wake_at=2.5)
    node = SimNode(net, h1, [machine])
    node.start()
    sim.run()
    assert machine.polled_at == [2.5]


def test_events_of_filter():
    sim, net, h1, h2 = build()
    n1 = SimNode(net, h1, [Echo()])
    n1.start()
    net.send_unicast("h2", "h1", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    assert len(n1.events_of(LossDetected)) == 1


class Counting(ProtocolMachine):
    """Test machine: counts the packets it is shown; optionally wakes."""

    def __init__(self, wake_at=None):
        super().__init__()
        self.seen = 0
        if wake_at is not None:
            self.timers.set(("wake",), wake_at)

    def handle(self, packet, src, now):
        self.seen += 1
        return []


@pytest.mark.parametrize("stop", ["pause", "crash"])
def test_a_node_stopped_by_its_first_machine_hides_the_packet_from_the_rest(stop):
    """One guard for the one delivery body: once an executed action has
    paused or crashed the node, the remaining machines never see the
    packet and no wakeup is armed (the multi-machine branch used to keep
    dispatching; only the single-machine one checked)."""
    sim, net, h1, h2 = build()
    second = Counting(wake_at=5.0)
    node = SimNode(net, h1, [Echo(), second])
    node.on_event = lambda event, now: getattr(node, stop)()
    node.start()
    net.send_unicast("h2", "h1", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run_until(1.0)
    assert not node.alive
    assert [d.seq for d in node.delivered] == [1]  # the Deliver ahead of the Notify ran
    assert second.seen == 0
    assert node._mux_due is None and node._due is None
    # Un-stopped, the same node shows every machine every packet.
    node.resume() if stop == "pause" else node.restart()
    node.on_event = None
    net.send_unicast("h2", "h1", DataPacket(group="g", seq=2, payload=b"x"))
    sim.run_until(2.0)
    assert second.seen == 1


class TestTrace:
    def test_counts_by_type_and_scope(self):
        sim = Simulator()
        net = Network(sim)
        s0, s1 = net.add_site("s0"), net.add_site("s1")
        a = net.add_host("a", s0)
        b = net.add_host("b", s1)
        c = net.add_host("c", s0)
        trace = PacketTrace(net)
        net.send_unicast("a", "b", NackPacket(group="g", seqs=(1,)))
        net.send_unicast("a", "c", NackPacket(group="g", seqs=(2,)))
        sim.run()
        assert trace.delivered(PacketType.NACK) == 2
        assert trace.delivered(PacketType.NACK, cross_site=True) == 1
        assert trace.cross_site_nacks() == 1

    def test_records_kept_when_asked(self):
        """The network keeps counts; a caller keeps records by installing
        its own observer, and the counts go on beside it."""
        sim = Simulator()
        net = Network(sim)
        s0 = net.add_site("s0")
        net.add_host("a", s0)
        net.add_host("b", s0)
        trace = PacketTrace(net)
        records = []
        assert net.observer is None

        def keep(kind, packet, src, hosts, now):
            records.append((kind, packet.seq, tuple(host.name for host in hosts)))

        net.observer = keep
        net.send_unicast("a", "b", DataPacket(group="g", seq=5, payload=b"x"))
        sim.run()
        assert records == [("rx", 5, ("b",))]
        assert trace.delivered(PacketType.DATA) == 1
        assert trace.delivered(PacketType.DATA, cross_site=True) == 0

    def test_reset(self):
        sim = Simulator()
        net = Network(sim)
        s0 = net.add_site("s0")
        net.add_host("a", s0)
        net.add_host("b", s0)
        trace = PacketTrace(net)
        net.send_unicast("a", "b", DataPacket(group="g", seq=1, payload=b""))
        sim.run()
        trace.reset()
        assert trace.delivered(PacketType.DATA) == 0


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngStreams(5).stream("loss")
        b = RngStreams(5).stream("loss")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_independent(self):
        streams = RngStreams(5)
        loss = streams.stream("loss")
        before = loss.random()
        # Creating/consuming another stream must not disturb "loss".
        streams.stream("other").random()
        fresh = RngStreams(5)
        fresh_loss = fresh.stream("loss")
        fresh_loss.random()
        assert loss.random() == fresh_loss.random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("x").random() != RngStreams(2).stream("x").random()

    def test_stream_cached(self):
        streams = RngStreams(0)
        assert streams.stream("a") is streams.stream("a")
