"""Action/event helper tests."""

from __future__ import annotations

from repro.core.actions import Deliver, SendMulticast, SendUnicast
from repro.core.events import LossDetected
from repro.core.packets import PrimaryQueryPacket


def test_actions_are_frozen_and_hashable():
    pkt = PrimaryQueryPacket(group="g")
    a = SendUnicast(dest="a", packet=pkt)
    b = SendUnicast(dest="a", packet=pkt)
    assert a == b
    assert hash(a) == hash(b)
    assert SendMulticast(group="g", packet=pkt).ttl is None
    assert Deliver(seq=1, payload=b"x").recovered is False  # default


def test_events_are_frozen():
    event = LossDetected(seqs=(1, 2), via_silence=True)
    assert event.seqs == (1, 2)
    assert event.via_silence
