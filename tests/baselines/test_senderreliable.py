"""Positive-ACK baseline tests: implosion, in-order stalls, retransmits."""

from __future__ import annotations

import pytest

from repro.baselines.senderreliable import (
    PosAckDataPacket,
    PosAckPacket,
    PosAckReceiver,
    PosAckSender,
)
from repro.core.actions import Deliver, SendMulticast, SendUnicast
from repro.core.packets import decode, encode


def test_packets_roundtrip():
    for pkt in (
        PosAckDataPacket(group="g", seq=1, payload=b"x"),
        PosAckPacket(group="g", cum_seq=7),
    ):
        assert decode(encode(pkt)) == pkt


def test_every_receiver_acks_every_packet():
    """The ACK implosion: per-packet ACK count equals group size."""
    receivers = tuple(f"r{i}" for i in range(25))
    sender = PosAckSender("g", receivers)
    sender.send(b"x", 0.0)
    for r in receivers:
        sender.handle(PosAckPacket(group="g", cum_seq=1), r, 0.05)
    assert sender.stats["acks_received"] == 25


def test_release_requires_all_receivers():
    sender = PosAckSender("g", ("r0", "r1"))
    sender.send(b"x", 0.0)
    sender.handle(PosAckPacket(group="g", cum_seq=1), "r0", 0.05)
    assert sender.unreleased == 1
    sender.handle(PosAckPacket(group="g", cum_seq=1), "r1", 0.06)
    assert sender.unreleased == 0
    assert sender.released_up_to == 1


def test_slow_receiver_blocks_release():
    """§5: the source is *not* isolated from receiver behaviour."""
    sender = PosAckSender("g", ("fast", "slow"))
    for i in range(5):
        sender.send(b"x", float(i))
    sender.handle(PosAckPacket(group="g", cum_seq=5), "fast", 5.0)
    assert sender.unreleased == 5  # slow receiver pins the whole buffer


def test_retransmit_to_silent_receiver():
    sender = PosAckSender("g", ("r0", "r1"), retry=0.5)
    sender.send(b"x", 0.0)
    sender.handle(PosAckPacket(group="g", cum_seq=1), "r0", 0.1)
    actions = sender.poll(0.6)
    retrans = [a for a in actions if isinstance(a, SendUnicast)]
    assert len(retrans) == 1 and retrans[0].dest == "r1"
    assert sender.stats["retransmits"] == 1


def test_dead_receiver_eventually_dropped():
    sender = PosAckSender("g", ("r0",), retry=0.1, max_retries=3)
    sender.send(b"x", 0.0)
    now = 0.0
    for _ in range(6):
        now += 0.15
        sender.poll(now)
    assert sender.stats["receivers_failed"] == 1
    assert sender.unreleased == 0  # quorum shrank; buffer released


def test_ack_from_unknown_ignored():
    sender = PosAckSender("g", ("r0",))
    sender.send(b"x", 0.0)
    sender.handle(PosAckPacket(group="g", cum_seq=1), "stranger", 0.1)
    assert sender.unreleased == 1


class TestReceiver:
    def test_in_order_delivery(self):
        r = PosAckReceiver("g", sender="src")
        actions = r.handle(PosAckDataPacket(group="g", seq=1, payload=b"a"), "src", 0.0)
        deliveries = [a for a in actions if isinstance(a, Deliver)]
        assert deliveries and deliveries[0].seq == 1
        assert [a.packet.cum_seq for a in actions if isinstance(a, SendUnicast)] == [1]

    def test_gap_stalls_delivery(self):
        """Head-of-line blocking: seq 3 held until 2 arrives."""
        r = PosAckReceiver("g", sender="src")
        r.handle(PosAckDataPacket(group="g", seq=1, payload=b"a"), "src", 0.0)
        actions = r.handle(PosAckDataPacket(group="g", seq=3, payload=b"c"), "src", 0.1)
        assert not [a for a in actions if isinstance(a, Deliver)]
        assert r.stats["stalled"] >= 1
        actions = r.handle(PosAckDataPacket(group="g", seq=2, payload=b"b"), "src", 0.2)
        seqs = [a.seq for a in actions if isinstance(a, Deliver)]
        assert seqs == [2, 3]  # released in order

    def test_acks_cumulative(self):
        r = PosAckReceiver("g", sender="src")
        actions = r.handle(PosAckDataPacket(group="g", seq=1, payload=b"a"), "src", 0.0)
        acks = [a.packet for a in actions if isinstance(a, SendUnicast)]
        assert acks and acks[0].cum_seq == 1

    def test_every_packet_acked_even_duplicates(self):
        r = PosAckReceiver("g", sender="src")
        r.handle(PosAckDataPacket(group="g", seq=1, payload=b"a"), "src", 0.0)
        r.handle(PosAckDataPacket(group="g", seq=1, payload=b"a"), "src", 0.1)
        assert r.stats["acks_sent"] == 2


def test_validation():
    with pytest.raises(ValueError):
        PosAckSender("g", (), retry=0.0)
