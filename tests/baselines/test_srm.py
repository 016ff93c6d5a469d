"""SRM/wb baseline tests: suppression, repair, duplicate behaviour."""

from __future__ import annotations

import random

import pytest

from repro.baselines.srm import (
    SrmMember,
    SrmRepairPacket,
    SrmRequestPacket,
    SrmSender,
    SrmSessionPacket,
)
from repro.core.actions import Deliver, Notify, SendMulticast
from repro.core.events import RecoveryComplete
from repro.core.packets import DataPacket, decode, encode


def multicast_packets(actions, ptype):
    return [a.packet for a in actions if isinstance(a, SendMulticast) and isinstance(a.packet, ptype)]


def make_member(seed=0, **kwargs) -> SrmMember:
    return SrmMember("g", d_source=0.04, rng=random.Random(seed), **kwargs)


def test_srm_packets_roundtrip():
    for pkt in (
        SrmSessionPacket(group="g", seq=4),
        SrmRequestPacket(group="g", seq=2),
        SrmRepairPacket(group="g", seq=2, payload=b"fix"),
    ):
        assert decode(encode(pkt)) == pkt


def test_sender_session_messages_fixed_interval():
    sender = SrmSender("g", session_interval=0.25)
    sender.start(0.0)
    sender.send(b"x", 0.1)
    actions = sender.poll(0.25)
    sessions = multicast_packets(actions, SrmSessionPacket)
    assert sessions and sessions[0].seq == 1
    actions = sender.poll(0.5)
    assert multicast_packets(actions, SrmSessionPacket)


def test_member_caches_and_delivers():
    m = make_member()
    actions = m.handle(DataPacket(group="g", seq=1, payload=b"x"), "src", 0.0)
    deliveries = [a for a in actions if isinstance(a, Deliver)]
    assert deliveries
    # Cached: a peer's request for it is answered with a repair.
    m.handle(SrmRequestPacket(group="g", seq=1), "peer", 0.1)
    repairs = multicast_packets(m.poll(m.next_wakeup()), SrmRepairPacket)
    assert [(r.seq, r.payload) for r in repairs] == [(1, b"x")]


def test_gap_schedules_randomized_request():
    m = make_member()
    m.handle(DataPacket(group="g", seq=1, payload=b"x"), "src", 0.0)
    m.handle(DataPacket(group="g", seq=3, payload=b"z"), "src", 0.1)
    due = m.next_wakeup()
    # request delay drawn from [c1*d, (c1+c2)*d] = [0.04, 0.08] after detection
    assert 0.1 + 0.04 <= due <= 0.1 + 0.08
    actions = m.poll(due)
    requests = multicast_packets(actions, SrmRequestPacket)
    assert requests and requests[0].seq == 2


def test_session_message_reveals_loss():
    m = make_member()
    m.handle(DataPacket(group="g", seq=1, payload=b"x"), "src", 0.0)
    m.handle(SrmSessionPacket(group="g", seq=2), "src", 0.3)
    assert 2 in m.missing


def test_foreign_request_suppresses_own():
    """Seeing someone else's request for the same seq suppresses ours."""
    m = make_member()
    m.handle(DataPacket(group="g", seq=1, payload=b"x"), "src", 0.0)
    m.handle(DataPacket(group="g", seq=3, payload=b"z"), "src", 0.1)
    first_due = m.next_wakeup()
    m.handle(SrmRequestPacket(group="g", seq=2), "peer", 0.11)
    assert m.stats["requests_suppressed"] == 1
    assert m.next_wakeup() > first_due  # backed off


def test_holder_schedules_repair_and_cancels_on_peer_repair():
    holder = make_member(seed=1)
    holder.handle(DataPacket(group="g", seq=2, payload=b"data2"), "src", 0.0)
    holder.handle(SrmRequestPacket(group="g", seq=2), "needy", 0.1)
    due = holder.next_wakeup()
    assert due is not None
    # another member repairs first: ours is cancelled
    holder.handle(SrmRepairPacket(group="g", seq=2, payload=b"data2"), "other", 0.12)
    assert holder.stats["repairs_cancelled"] == 1
    assert not multicast_packets(holder.poll(due), SrmRepairPacket)


def test_holder_sends_repair_when_unopposed():
    holder = make_member(seed=1)
    holder.handle(DataPacket(group="g", seq=2, payload=b"data2"), "src", 0.0)
    holder.handle(SrmRequestPacket(group="g", seq=2), "needy", 0.1)
    actions = holder.poll(holder.next_wakeup())
    repairs = multicast_packets(actions, SrmRepairPacket)
    assert repairs and repairs[0].payload == b"data2"
    assert holder.stats["repairs_sent"] == 1


def test_repair_recovers_and_reports_latency():
    m = make_member()
    m.handle(DataPacket(group="g", seq=1, payload=b"x"), "src", 0.0)
    m.handle(DataPacket(group="g", seq=3, payload=b"z"), "src", 0.1)
    actions = m.handle(SrmRepairPacket(group="g", seq=2, payload=b"y"), "peer", 0.3)
    recov = [a.event for a in actions if isinstance(a, Notify) and isinstance(a.event, RecoveryComplete)]
    assert recov and recov[0].latency == pytest.approx(0.2)
    assert not m.missing


def test_duplicate_repair_counted():
    m = make_member()
    m.handle(DataPacket(group="g", seq=1, payload=b"x"), "src", 0.0)
    m.handle(SrmRepairPacket(group="g", seq=1, payload=b"x"), "peer", 0.2)
    assert m.stats["duplicate_repairs_seen"] == 1


def test_request_rearmed_with_backoff_until_repair():
    m = make_member()
    m.handle(DataPacket(group="g", seq=1, payload=b"x"), "src", 0.0)
    m.handle(DataPacket(group="g", seq=3, payload=b"z"), "src", 0.1)
    m.poll(m.next_wakeup())  # request 1
    assert m.stats["requests_sent"] == 1
    m.poll(m.next_wakeup())  # request 2 (backed off)
    assert m.stats["requests_sent"] == 2


def test_validation():
    with pytest.raises(ValueError):
        SrmSender("g", session_interval=0.0)
    with pytest.raises(ValueError):
        SrmMember("g", d_source=0.0)
