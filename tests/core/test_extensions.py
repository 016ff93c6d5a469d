"""Tests for the §7 small-packet repeat and multi-level hierarchy."""

from __future__ import annotations

import pytest

from repro.core.actions import SendMulticast
from repro.core.config import HeartbeatConfig, LbrmConfig
from repro.core.packets import DataPacket, HeartbeatPacket
from repro.core.sender import LbrmSender
from repro.simnet import BurstLoss, DeploymentSpec, LbrmDeployment


def multicast_packets(actions, ptype):
    return [a.packet for a in actions if isinstance(a, SendMulticast) and isinstance(a.packet, ptype)]


class TestSmallPacketRepeat:
    def make(self, repeat_max=64) -> LbrmSender:
        cfg = LbrmConfig(heartbeat=HeartbeatConfig(repeat_payload_max=repeat_max))
        return LbrmSender("g", cfg, primary=None)

    def test_small_payload_repeated_instead_of_heartbeat(self):
        sender = self.make()
        sender.send(b"small", 0.0)
        actions = sender.poll(sender.next_wakeup())
        repeats = multicast_packets(actions, DataPacket)
        assert repeats and repeats[0].seq == 1 and repeats[0].payload == b"small"
        assert not multicast_packets(actions, HeartbeatPacket)
        assert sender.stats.get("data_repeats_sent") == 1

    def test_large_payload_uses_plain_heartbeat(self):
        sender = self.make(repeat_max=4)
        sender.send(b"this payload is too large", 0.0)
        actions = sender.poll(sender.next_wakeup())
        assert multicast_packets(actions, HeartbeatPacket)
        assert not multicast_packets(actions, DataPacket)

    def test_disabled_by_default(self):
        sender = LbrmSender("g", LbrmConfig(), primary=None)
        sender.send(b"x", 0.0)
        actions = sender.poll(sender.next_wakeup())
        assert multicast_packets(actions, HeartbeatPacket)

    def test_repeats_follow_backoff_schedule(self):
        sender = self.make()
        sender.send(b"x", 0.0)
        times = []
        for _ in range(4):
            due = sender.next_wakeup()
            times.append(due)
            sender.poll(due)
        assert times == pytest.approx([0.25, 0.75, 1.75, 3.75])

    def test_receiver_watchdog_tracks_repeats(self):
        """Duplicates of the newest packet advance the adaptive watchdog
        like heartbeats, so no spurious FreshnessLost during backoff."""
        from repro.core.config import ReceiverConfig
        from repro.core.events import FreshnessLost
        from repro.core.receiver import LbrmReceiver

        hb = HeartbeatConfig(repeat_payload_max=64)
        rx = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",), heartbeat=hb)
        rx.start(0.0)
        pkt = DataPacket(group="g", seq=1, payload=b"x")
        rx.handle(pkt, "src", 0.0)
        for t in (0.25, 0.75, 1.75, 3.75):
            rx.handle(pkt, "src", t)  # sender repeats in heartbeat slots
        # next repeat due at 7.75; watchdog = 2 * 4.0 after 3.75
        actions = rx.poll(3.75 + 7.9)
        lost = [a for a in actions if hasattr(a, "event") and isinstance(a.event, FreshnessLost)]
        assert lost == []

    def test_lost_final_packet_self_repairs_without_nack(self):
        """The §7 rationale: 'This would reduce retransmission requests.'"""
        cfg = LbrmConfig(heartbeat=HeartbeatConfig(repeat_payload_max=256))
        dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=2,
                                            config=cfg, seed=44))
        dep.start()
        dep.advance(0.1)
        dep.send(b"warm")
        dep.advance(1.0)
        now = dep.sim.now
        dep.network.site("site1").tail_down.loss = BurstLoss([(now, now + 0.05)])
        dep.send(b"final small update")
        dep.advance(3.0)
        assert dep.receivers_with(2) == len(dep.receivers)
        # The heartbeat-slot repeat repaired it: zero NACK traffic.
        site1_receivers = dep.receivers[:2]
        assert all(rx.stats["nacks_sent"] == 0 for rx in site1_receivers)


class TestMultiLevelHierarchy:
    def test_interior_hubs_built(self):
        dep = LbrmDeployment(DeploymentSpec(n_sites=6, receivers_per_site=1,
                                            depth=3, fanout=3, seed=9))
        assert len(dep.interior_loggers) == 2
        assert dep.receivers[0].logger_chain == ("site1-logger", "hub1-0-logger", "primary")
        assert dep.receivers[5].logger_chain == ("site6-logger", "hub1-1-logger", "primary")

    def test_no_regions_by_default(self):
        dep = LbrmDeployment(DeploymentSpec(n_sites=4, receivers_per_site=1, seed=9))
        assert dep.interior_loggers == []

    def test_widespread_loss_primary_sees_one_nack_per_region(self):
        """'A multi-level hierarchy of logging servers may be used to
        further reduce NACK bandwidth in large groups' (§7)."""
        def primary_nacks(depth, fanout=8):
            dep = LbrmDeployment(DeploymentSpec(n_sites=12, receivers_per_site=2,
                                                depth=depth, fanout=fanout, seed=13))
            dep.start()
            dep.advance(0.2)
            dep.send(b"warm")
            dep.advance(1.0)
            now = dep.sim.now
            for i in range(1, 13):
                dep.network.site(f"site{i}").tail_down.loss = BurstLoss([(now, now + 0.05)])
            dep.send(b"lost")
            dep.advance(10.0)
            assert dep.receivers_with(2) == len(dep.receivers)
            return dep.primary.stats["nacks_received"]

        flat = primary_nacks(2)
        regional = primary_nacks(3, fanout=4)
        assert flat == 12  # one per site logger
        assert regional == 3  # one per interior hub

    def test_recovery_works_through_all_levels(self):
        dep = LbrmDeployment(DeploymentSpec(n_sites=4, receivers_per_site=2,
                                            depth=3, fanout=2, seed=14))
        dep.start()
        dep.advance(0.2)
        dep.send(b"a")
        dep.advance(1.0)
        now = dep.sim.now
        dep.network.site("site3").tail_down.loss = BurstLoss([(now, now + 0.05)])
        dep.send(b"b")
        dep.advance(5.0)
        assert dep.receivers_with(2) == len(dep.receivers)
        # the hub above site3 also holds the full log
        assert all(len(l.log) == 2 for l in dep.interior_loggers)
