"""Topology/routing tests: paths, TTL scoping, shared multicast fate."""

from __future__ import annotations

import pytest

from repro.core.packets import DataPacket, PrimaryQueryPacket
from repro.simnet.engine import Simulator
from repro.simnet.loss import BurstLoss
from repro.simnet.topology import CROSS_SITE_HOPS, SAME_SITE_HOPS, Network, wire_size


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, src, now):
        self.received.append((packet, src, now))


def build(sim=None):
    sim = sim or Simulator()
    net = Network(sim, backbone_latency=0.005)
    s0 = net.add_site("s0", lan_latency=0.001, tail_latency=0.02)
    s1 = net.add_site("s1", lan_latency=0.001, tail_latency=0.02)
    hosts = {}
    for name, site in (("a0", s0), ("a1", s0), ("b0", s1), ("b1", s1)):
        hosts[name] = net.add_host(name, site)
        hosts[name].attach(Sink())
    return sim, net, hosts


def test_duplicate_names_rejected():
    sim, net, hosts = build()
    with pytest.raises(ValueError):
        net.add_site("s0")
    with pytest.raises(ValueError):
        net.add_host("a0", net.site("s1"))


def test_same_site_path_is_lan_only():
    sim, net, hosts = build()
    links, hops = net.path(hosts["a0"], hosts["a1"])
    assert hops == SAME_SITE_HOPS
    assert [l.name for l in links] == ["s0.lan"]


def test_cross_site_path_crosses_tails_and_backbone():
    sim, net, hosts = build()
    links, hops = net.path(hosts["a0"], hosts["b0"])
    assert hops == CROSS_SITE_HOPS
    assert [l.name for l in links] == ["s0.lan", "s0.tail.up", "backbone", "s1.tail.down", "s1.lan"]


def test_unicast_latency_sums_links():
    sim, net, hosts = build()
    net.send_unicast("a0", "b0", PrimaryQueryPacket(group="g"))
    sim.run()
    packet, src, at = hosts["b0"].endpoint.received[0]
    assert src == "a0"
    assert at == pytest.approx(0.001 + 0.02 + 0.005 + 0.02 + 0.001)


def test_unicast_to_unknown_host_counts_drop():
    sim, net, hosts = build()
    net.send_unicast("a0", "ghost", PrimaryQueryPacket(group="g"))
    sim.run()
    assert net.stats["dropped"] == 1


def test_multicast_reaches_all_members_except_sender():
    sim, net, hosts = build()
    for name in hosts:
        net.join("g", name)
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    assert hosts["a0"].endpoint.received == []  # no self-delivery
    for name in ("a1", "b0", "b1"):
        assert len(hosts[name].endpoint.received) == 1


def test_multicast_ttl_scopes_to_site():
    sim, net, hosts = build()
    for name in hosts:
        net.join("g", name)
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"), ttl=1)
    sim.run()
    assert len(hosts["a1"].endpoint.received) == 1
    assert hosts["b0"].endpoint.received == []
    assert hosts["b1"].endpoint.received == []


def test_multicast_shared_fate_on_tail_loss():
    """A drop on one site's tail-down loses the packet for the whole site."""
    sim, net, hosts = build()
    for name in hosts:
        net.join("g", name)
    net.site("s1").tail_down.loss = BurstLoss([(0.0, 1.0)])
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    assert len(hosts["a1"].endpoint.received) == 1  # own site unaffected
    assert hosts["b0"].endpoint.received == []
    assert hosts["b1"].endpoint.received == []
    # the loss was evaluated once: exactly one drop charged to the link
    assert net.site("s1").tail_down.stats.drops_loss == 1


def test_multicast_charges_each_link_once():
    sim, net, hosts = build()
    for name in hosts:
        net.join("g", name)
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"abc"))
    sim.run()
    # Two members behind s1, but the tail carried exactly one copy.
    assert net.site("s1").tail_down.stats.packets == 1
    assert net.backbone.stats.packets == 1


def test_host_inbound_loss():
    sim, net, hosts = build()
    hosts["b0"].inbound_loss = BurstLoss([(0.0, 10.0)])
    for name in hosts:
        net.join("g", name)
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    assert hosts["b0"].endpoint.received == []
    assert len(hosts["b1"].endpoint.received) == 1
    assert hosts["b0"].rx_dropped == 1


def test_leave_group_stops_delivery():
    sim, net, hosts = build()
    for name in hosts:
        net.join("g", name)
    net.leave("g", "b0")
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    assert hosts["b0"].endpoint.received == []
    assert net.members("g") == frozenset({"a0", "a1", "b1"})


def test_wire_size_matches_encoding():
    from repro.core.packets import encode

    pkt = DataPacket(group="g", seq=1, payload=b"x" * 37)
    assert wire_size(pkt) == len(encode(pkt))


def test_observer_sees_rx_and_drop():
    sim, net, hosts = build()
    seen = []
    net.observer = lambda kind, p, s, d, t: seen.append((kind, s, d))
    net.site("s1").tail_down.loss = BurstLoss([(0.0, 1.0)])
    for name in hosts:
        net.join("g", name)
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"))
    sim.run()
    kinds = {k for k, _, _ in seen}
    assert kinds == {"rx", "drop"}


def test_scoped_multicast_matches_reference_through_membership_changes():
    """A TTL-scoped fan-out walks only the source site's segments; it
    must deliver to exactly the hosts, in exactly the order, of the
    per-receiver reference loop — also after join, leave, and a host
    created under a name that had already joined."""

    def run(batch: bool):
        sim, net, hosts = build()
        net.batch_delivery = batch
        log = []
        net.observer = lambda kind, packet, src, dst, now: log.append((kind, packet.seq, src, dst, now))
        for name in ("a0", "a1", "b0", "b1"):
            net.join("g", name)
        net.join("g", "a2")  # joined before the host exists
        seq = 0

        def scoped_from_everyone():
            nonlocal seq
            for src in sorted(net.members("g") & set(h.name for h in net.hosts)):
                for ttl in (0, 1, CROSS_SITE_HOPS - 1, CROSS_SITE_HOPS, None):
                    seq += 1
                    net.send_multicast(src, "g", DataPacket(group="g", seq=seq, payload=b"x"), ttl=ttl)
            sim.run()

        scoped_from_everyone()
        net.add_host("a2", net.site("s0")).attach(Sink())
        scoped_from_everyone()
        net.leave("g", "a1")
        net.join("g", "b2")
        net.add_host("b2", net.site("s1")).attach(Sink())
        scoped_from_everyone()
        return log

    fast, reference = run(True), run(False)
    assert fast == reference
    # ttl=1 from a0 after a2 appeared reached a1 and a2 and nobody on s1.
    assert {dst for kind, _seq, src, dst, _now in fast if src == "a0"} >= {"a1", "a2"}
