"""The one action interpreter: ``run_actions`` and ``handle_each``.

Every runtime node carries actions out through the same six-way dispatch,
so its contract is pinned here once, over a stand-in node that records
which primitive and which tap ran, in what order, with what arguments.
"""

from __future__ import annotations

import pytest

from repro.core.actions import (
    Deliver,
    JoinGroup,
    LeaveGroup,
    Notify,
    SendMulticast,
    SendUnicast,
    handle_each,
    run_actions,
)
from repro.core.events import LossDetected
from repro.core.machine import ProtocolMachine, earliest_wakeup
from repro.core.packets import NackPacket

PACKET = NackPacket(group="g", seqs=(4,))
EVENT = LossDetected(seqs=(4,))
NOW = 7.5


class _Recorder:
    """A stand-in node: every primitive and tap appends one call record.

    ``on_event`` also snapshots ``events``, so the record shows whether
    the event was appended before the tap ran.
    """

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.events: list = []
        self.now = NOW
        self.alive = True
        self.on_send = lambda action, now: self.calls.append(("on_send", action, now))
        self.on_event = lambda event, now: self.calls.append(
            ("on_event", event, now, list(self.events)))

    def unicast(self, dest, packet):
        self.calls.append(("unicast", dest, packet))

    def multicast(self, group, packet, ttl):
        self.calls.append(("multicast", group, packet, ttl))

    def join_group(self, group):
        self.calls.append(("join_group", group))

    def leave_group(self, group):
        self.calls.append(("leave_group", group))

    def deliver(self, action):
        self.calls.append(("deliver", action))


_DELIVER = Deliver(seq=3, payload=b"p", recovered=True)
_UNICAST = SendUnicast(dest="h2", packet=PACKET)
_MULTICAST = SendMulticast(group="g", packet=PACKET, ttl=2)

TABLE = [
    (_DELIVER, [("deliver", _DELIVER)]),
    (_UNICAST, [("on_send", _UNICAST, NOW), ("unicast", "h2", PACKET)]),
    (_MULTICAST, [("on_send", _MULTICAST, NOW), ("multicast", "g", PACKET, 2)]),
    (Notify(EVENT), [("on_event", EVENT, NOW, [EVENT])]),
    (JoinGroup(group="g"), [("join_group", "g")]),
    (LeaveGroup(group="g"), [("leave_group", "g")]),
]


@pytest.mark.parametrize("action, calls", TABLE, ids=[type(a).__name__ for a, _ in TABLE])
def test_each_action_reaches_its_primitive(action, calls):
    """One row per action type: the primitive and its arguments, the send
    tap strictly before the transmission, the event tap strictly after
    ``events.append``."""
    node = _Recorder()
    run_actions([action], node)
    assert node.calls == calls
    assert node.events == ([EVENT] if type(action) is Notify else [])


def test_untapped_node_runs_only_the_primitives():
    node = _Recorder()
    node.on_send = node.on_event = None
    run_actions([action for action, _ in TABLE], node)
    assert [call[0] for call in node.calls] == [
        "deliver", "unicast", "multicast", "join_group", "leave_group"]
    assert node.events == [EVENT]


def test_actions_run_in_order():
    node = _Recorder()
    run_actions([_MULTICAST, _DELIVER, _UNICAST], node)
    assert [call[0] for call in node.calls] == [
        "on_send", "multicast", "deliver", "on_send", "unicast"]


def test_an_unknown_action_raises_type_error():
    node = _Recorder()
    with pytest.raises(TypeError, match="unknown action"):
        run_actions([_DELIVER, ("not", "an", "action")], node)
    assert node.calls == [("deliver", _DELIVER)]


class _Echo(ProtocolMachine):
    """Answers every packet with a delivery and a loss event."""

    def __init__(self, wake_at=None) -> None:
        super().__init__()
        self.seen = 0
        if wake_at is not None:
            self.timers.set(("wake",), wake_at)

    def handle(self, packet, src, now):
        self.seen += 1
        return [Deliver(seq=1, payload=b"x"), Notify(EVENT)]


def test_handle_each_runs_each_machines_actions_before_the_next_sees_the_packet():
    node = _Recorder()
    first, second = _Echo(), _Echo()
    order = []
    node.deliver = lambda action: order.append((first.seen, second.seen))
    handle_each([first, second], PACKET, "h2", NOW, node)
    assert order == [(1, 0), (1, 1)]


def test_handle_each_stops_once_the_node_is_not_alive():
    node = _Recorder()

    def stop(event, now):
        node.alive = False

    node.on_event = stop
    first, second = _Echo(), _Echo()
    handle_each([first, second], PACKET, "h2", NOW, node)
    assert (first.seen, second.seen) == (1, 0)
    assert [call[0] for call in node.calls] == ["deliver"]  # the Notify ran, then the walk stopped


def test_start_defaults_to_nothing_and_earliest_wakeup_takes_the_min():
    assert ProtocolMachine().start(0.0) == []
    machines = [_Echo(), _Echo(wake_at=3.0), _Echo(wake_at=2.0)]
    assert earliest_wakeup(machines) == 2.0
    assert earliest_wakeup(machines[:1]) is None
    assert earliest_wakeup([]) is None
