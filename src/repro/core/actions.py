"""Actions emitted by sans-IO protocol machines.

Every protocol machine in :mod:`repro.core` is I/O-free: it consumes
packets and clock readings and returns a list of :class:`Action`
objects describing what the surrounding harness should do.  Two
harnesses exist — the deterministic discrete-event simulator
(:mod:`repro.simnet`) and the real asyncio UDP runtime
(:mod:`repro.aio`) — and both carry actions out with the one
interpreter here, :func:`run_actions`, over primitives each node supplies.

Addresses are deliberately opaque: the simulator uses node-name strings
while the asyncio runtime uses ``(host, port)`` tuples.  Machines never
inspect addresses beyond equality and hashing.

Actions are value objects: immutable, hashable, compared by type and
fields.  They are built on :class:`~typing.NamedTuple` rather than
frozen dataclasses because machines mint them on every packet — a
frozen dataclass pays an ``object.__setattr__`` call per field on
construction (~3x the cost), and ``Deliver`` alone is created hundreds
of thousands of times per benchmark run.  Tuple equality ignores the
class, so each action type pins ``__eq__`` to same-type comparisons.
"""

from __future__ import annotations

from abc import ABCMeta
from typing import Hashable, NamedTuple, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.packets import Packet
    from repro.core.events import Event

__all__ = [
    "Address",
    "GroupId",
    "own_token",
    "Action",
    "SendUnicast",
    "SendMulticast",
    "Deliver",
    "Notify",
    "JoinGroup",
    "LeaveGroup",
    "run_actions",
    "handle_each",
]

# An address is any hashable token the transport understands.
Address = Hashable
# Multicast group identifier (group address string in both harnesses).
GroupId = str


def own_token(token: str) -> Address:
    """The simulator's ``parse_token``: its addresses are their own wire
    tokens (asyncio passes :func:`repro.aio.node.parse_token`)."""
    return token


class Action(metaclass=ABCMeta):
    """Marker base class for all protocol actions.

    The concrete action types are ``NamedTuple`` subclasses (see module
    docstring), so they register here as virtual subclasses:
    ``isinstance(x, Action)`` keeps working.
    """

    __slots__ = ()


def _value_type(cls):
    """Register an action NamedTuple and give it type-strict equality.

    Plain tuple equality would make ``JoinGroup("g") == LeaveGroup("g")``
    true; actions of different types must never compare equal.  The hash
    stays the raw tuple hash (equal values ⇒ equal hashes still holds).
    """

    def __eq__(self, other, _cls=cls, _teq=tuple.__eq__):
        return type(other) is _cls and _teq(self, other) is True

    def __ne__(self, other):
        return not self.__eq__(other)

    cls.__eq__ = __eq__
    cls.__ne__ = __ne__
    cls.__hash__ = tuple.__hash__
    Action.register(cls)
    return cls


@_value_type
class SendUnicast(NamedTuple):
    """Transmit ``packet`` point-to-point to ``dest``."""

    dest: Address
    packet: "Packet"


@_value_type
class SendMulticast(NamedTuple):
    """Transmit ``packet`` to multicast ``group``.

    ``ttl`` limits propagation scope: the simulator interprets it as a
    hop count (1 = stay within the site LAN), matching the paper's use
    of the IP TTL field to keep secondary-logger re-multicasts local
    (§2.2.1).  ``None`` means unrestricted (group-wide).
    """

    group: GroupId
    packet: "Packet"
    ttl: int | None = None


@_value_type
class Deliver(NamedTuple):
    """Hand application payload up the stack.

    ``recovered`` is True when the payload arrived via a retransmission
    rather than the original multicast — applications with freshness
    semantics may treat recovered data differently (e.g. skip superseded
    updates).
    """

    seq: int
    payload: bytes
    recovered: bool = False


@_value_type
class Notify(NamedTuple):
    """Surface a protocol event (loss detected, epoch change, …)."""

    event: "Event"


@_value_type
class JoinGroup(NamedTuple):
    """Subscribe the local endpoint to multicast ``group``."""

    group: GroupId


@_value_type
class LeaveGroup(NamedTuple):
    """Unsubscribe the local endpoint from multicast ``group``."""

    group: GroupId


def run_actions(actions, node) -> None:
    """Carry out ``actions`` on ``node``, the one interpreter of them.

    ``node`` is a :class:`~repro.core.node.MachineNode`: the base gives
    ``deliver(action)``, an ``events`` list and two taps,
    ``on_send(action, now)`` before each transmission and
    ``on_event(event, now)`` after each event is appended; the runtime's
    subclass gives ``now``, ``unicast(dest, packet)``,
    ``multicast(group, packet, ttl)``, ``join_group(group)`` and
    ``leave_group(group)``.  The chain runs in observed frequency order:
    deliveries, unicasts, multicasts, events.
    """
    for action in actions:
        cls = type(action)
        if cls is Deliver:
            node.deliver(action)
        elif cls is SendUnicast:
            if node.on_send is not None:
                node.on_send(action, node.now)
            node.unicast(action.dest, action.packet)
        elif cls is SendMulticast:
            if node.on_send is not None:
                node.on_send(action, node.now)
            node.multicast(action.group, action.packet, action.ttl)
        elif cls is Notify:
            node.events.append(action.event)
            if node.on_event is not None:
                node.on_event(action.event, node.now)
        elif cls is JoinGroup:
            node.join_group(action.group)
        elif cls is LeaveGroup:
            node.leave_group(action.group)
        else:
            raise TypeError(f"unknown action {action!r}")


def handle_each(machines, packet: "Packet", src: Address, now: float, node) -> None:
    """Show ``packet`` to each machine in turn, running its actions on
    ``node`` before the next one sees it; stop once ``node`` is not
    ``alive`` (an action or tap stopped it), hiding the packet from the rest.
    """
    for machine in machines:
        actions = machine.handle(packet, src, now)
        if actions:
            run_actions(actions, node)
            if not node.alive:
                return
