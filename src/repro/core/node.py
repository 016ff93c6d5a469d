"""What a node is, whatever medium carries its packets.

A :class:`MachineNode` owns sans-IO machines: it starts and polls them,
hands a sender application data, and has
:func:`~repro.core.actions.run_actions` carry out what they return into
``delivered``, ``events`` and the ``on_event``/``on_send`` taps the chaos
oracle chains.  A subclass adds its medium — ``now``, ``unicast``,
``multicast``, ``join_group``, ``leave_group``, ``_reschedule`` (arm the
machines' earliest wakeup) and ``_disarm`` — and honours ``paused`` and
``_skew`` on its inbound path and in ``_reschedule``:
:class:`~repro.simnet.node.SimNode` over the simulated network,
:class:`~repro.aio.node.AioNode` over UDP.

The fault model is defined here once, so one
:class:`~repro.chaos.FaultSchedule` runs on either runtime: ``crash``
(machines detach, wakeups disarm, inbound traffic is lost), ``restart``
(each machine's ``restart`` keeps what a crash keeps, DESIGN §7),
``pause``/``resume`` (timers hold, inbound traffic is lost), and a
``clock_skew`` write (an offset on the machines' clock; it re-arms).
"""

from __future__ import annotations

from typing import Callable

from repro.core.actions import Action, Deliver, run_actions
from repro.core.events import Event
from repro.core.machine import ProtocolMachine

__all__ = ["MachineNode"]


class MachineNode:
    """A protocol stack on one endpoint (see the module docstring)."""

    def __init__(self, machines: list[ProtocolMachine] | None = None) -> None:
        self._set_machines(list(machines or []))
        # Public taps (the chaos oracle chains them): fn(event, now) per
        # Notify, fn(action, now) before each SendUnicast/SendMulticast.
        self.on_event: Callable[[Event, float], None] | None = None
        self.on_send: Callable[[Action, float], None] | None = None
        self.delivered: list[Deliver] = []
        self.events: list[Event] = []
        self.crashed = False
        self.paused = False
        self._closed = False  # the medium is gone for good: a crash is final
        self._skew = 0.0
        self._stashed_machines: list[ProtocolMachine] = []

    @property
    def alive(self) -> bool:
        """Neither crashed nor paused."""
        return not self.crashed and not self.paused

    @property
    def clock_skew(self) -> float:
        return self._skew

    @clock_skew.setter
    def clock_skew(self, skew: float) -> None:
        # Pending wakeups were converted with the old skew: re-arm.
        self._leave_cohort()
        self._skew = skew
        self._reschedule()

    def _machine_now(self) -> float:
        return self.now + self.clock_skew

    # -- machine management ----------------------------------------------------

    def _set_machines(self, machines: list[ProtocolMachine]) -> None:
        self.machines = machines

    def add_machine(self, machine: ProtocolMachine) -> None:
        self._leave_cohort()
        self._set_machines([*self.machines, machine])
        self._reschedule()

    def _leave_cohort(self) -> None:
        """Called before the node stops being plain (``SimNode``'s cohorts)."""

    def start(self) -> None:
        """Call each machine's ``start`` hook and arm timers."""
        for machine in self.machines:
            run_actions(machine.start(self._machine_now()), self)
        self._reschedule()

    def _poll_machines(self, now: float) -> None:
        for machine in self.machines:
            actions = machine.poll(now)
            if actions:
                run_actions(actions, self)
        self._reschedule()

    # -- app-facing helpers ----------------------------------------------------

    def send_app(self, machine, payload: bytes) -> None:
        """Have a sender machine multicast application data now."""
        run_actions(machine.send(payload, self._machine_now()), self)
        self._reschedule()

    def run_machine(self, fn, *args) -> None:
        """Execute ``fn(*args)`` returning actions, then reschedule."""
        run_actions(fn(*args), self)
        self._reschedule()

    def deliver(self, action: Deliver) -> None:
        self.delivered.append(action)

    def events_of(self, event_type) -> list[Event]:
        """All observed events of ``event_type`` so far."""
        return [e for e in self.events if isinstance(e, event_type)]

    # -- fault injection ----------------------------------------------------

    def crash(self) -> None:
        """Kill the node: machines detach, pending wakeups die, and
        inbound packets are lost until :meth:`restart`."""
        if self.crashed:
            return
        self._leave_cohort()
        self.crashed = True
        self._stashed_machines = self.machines
        self._set_machines([])
        self._disarm()

    def restart(self) -> None:
        """Bring a crashed node back: each machine's ``restart`` keeps
        what it declares a crash keeps (DESIGN §7) and starts again.
        A closed node stays crashed."""
        if not self.crashed or self._closed:
            return
        now = self._machine_now()  # first: a medium with no clock leaves the node down
        self.crashed = False
        self._set_machines(self._stashed_machines)
        self._stashed_machines = []
        for machine in self.machines:
            run_actions(machine.restart(now), self)
        self._reschedule()

    def pause(self) -> None:
        """Stop responding without dying (a stop-the-world pause)."""
        if self.paused:
            return
        self._leave_cohort()
        self.paused = True
        self._disarm()

    def resume(self) -> None:
        """End a :meth:`pause`; timers re-arm and fire from now on."""
        if not self.paused:
            return
        self.paused = False
        self._reschedule()
