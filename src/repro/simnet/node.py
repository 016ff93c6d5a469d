"""Binding protocol machines to simulated hosts.

A :class:`SimNode` owns one or more sans-IO machines on one host.  It
dispatches inbound packets to every machine, executes the actions they
return (transmissions via the network, deliveries and events into local
sinks), and keeps each machine's next wakeup scheduled on the simulator.

The node is also where LBRM's address tokens resolve: in the simulator
an address *is* the host name, so token parsing is the identity.

Fault-injection hooks (used by :mod:`repro.chaos`): a node can be
*crashed* (machines detached, inbound traffic falls on the floor),
*restarted* (machines re-attached with their state intact — modelling
the paper's disk-backed logs, §2.2, coming back after a process
restart), *paused*/*resumed* (alive but unresponsive, a stop-the-world
pause), and given a *clock skew* (a constant offset added to the time
its machines observe, without perturbing the simulation clock).

Wakeups are armed either as one simulator event per node (the reference
configuration) or through the network's
:class:`~repro.simnet.engine.WakeupMux` (the fast path, on whenever
``batch_delivery`` is), which shares one event among every node armed
for the same deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.actions import (
    Action,
    Deliver,
    JoinGroup,
    LeaveGroup,
    Notify,
    SendMulticast,
    SendUnicast,
)
from repro.core.events import Event
from repro.core.machine import ProtocolMachine
from repro.core.packets import Packet
from repro.simnet.engine import ScheduledEvent, Simulator

if TYPE_CHECKING:  # topology imports this module for the delivery loop
    from repro.simnet.topology import Host, Network

__all__ = ["SimNode"]


class SimNode:
    """A host's protocol stack inside the simulation."""

    def __init__(
        self,
        network: Network,
        host: Host,
        machines: list[ProtocolMachine] | None = None,
        on_deliver: Callable[[Deliver, float], None] | None = None,
        on_event: Callable[[Event, float], None] | None = None,
    ) -> None:
        self._network = network
        self._sim: Simulator = network.sim
        self.host = host
        self.machines: list[ProtocolMachine] = list(machines or [])
        self._on_deliver = on_deliver
        self._on_event = on_event
        self._wakeup: ScheduledEvent | None = None
        # Deadline armed on the network's WakeupMux (fast path), or None.
        # The mux fires us by calling poll(); it clears this first.  A
        # value that no longer matches any live bucket is simply stale —
        # mux cancellation is lazy (see WakeupMux).
        self._mux_due: float | None = None
        self.delivered: list[Deliver] = []
        self.events: list[Event] = []
        # Fault-injection state (see module docstring).
        self.crashed = False
        self.paused = False
        self.clock_skew = 0.0
        self._stashed_machines: list[ProtocolMachine] = []
        host.attach(self)

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def alive(self) -> bool:
        """True when the node can make protocol progress right now.

        A node whose machine list was emptied by hand (the pre-chaos
        idiom ``node.machines.clear()``) counts as dead too, so legacy
        fault injection and :meth:`crash` look the same to an oracle.
        """
        return bool(self.machines) and not self.crashed and not self.paused

    def _machine_now(self) -> float:
        return self._sim.now + self.clock_skew

    # -- machine management ----------------------------------------------------

    def add_machine(self, machine: ProtocolMachine) -> None:
        self.machines.append(machine)
        self._reschedule()

    def start(self) -> None:
        """Call each machine's ``start`` hook (if it has one) and arm timers."""
        for machine in self.machines:
            start = getattr(machine, "start", None)
            if callable(start):
                self.execute(start(self._machine_now()))
        self._reschedule()

    # -- the harness contract ---------------------------------------------------

    def receive(self, packet: Packet, src: str, now: float) -> None:
        """Network delivery entry point for one host (unicast, chaos
        arrivals, the per-receiver reference fan-out)."""
        SimNode.receive_batch((self,), packet, src, now)

    @staticmethod
    def receive_batch(endpoints, packet: Packet, src: str, now: float) -> None:
        """Deliver ``packet`` to each endpoint in turn: the one delivery
        loop, entered by :class:`Network` once per co-timed batch.

        Everything is read per node, nothing hoisted: an earlier node's
        ``on_deliver``/``on_event`` callback may pause or crash a later
        one in the same batch.  This runs once per (receiver, packet) in
        every scenario, so for the common shape — one machine per node —
        the lone ``Deliver`` is carried out and the wakeup armed in
        place, not through :meth:`execute` and :meth:`_reschedule` (worth
        1.08x on a loss-free run; a generic machine loop here, 1.01x).
        """
        for node in endpoints:
            if not isinstance(node, SimNode):
                if node is not None:
                    node.receive(packet, src, now)
                continue
            if node.paused:
                continue  # alive but unresponsive: inbound traffic is lost
            skew = node.clock_skew
            machines = node.machines
            if len(machines) != 1:
                node._receive_each(machines, packet, src, now + skew)
                continue
            machine = machines[0]
            actions = machine.handle(packet, src, now + skew if skew else now)
            if actions:
                if len(actions) == 1 and type(actions[0]) is Deliver and node._on_deliver is None:
                    node.delivered.append(actions[0])
                else:
                    node.execute(actions)
                    if not node.alive:
                        continue  # an executed action stopped us; resume()/restart() re-arm
            next_due = machine.next_wakeup()
            if next_due is None:
                node._disarm()
                continue
            if skew:
                next_due = next_due - skew
            mux = node._network.wakeup_mux
            if mux is not None:
                cur = node._mux_due
                if cur is None or cur > next_due:
                    node._mux_due = next_due
                    mux.arm(node, next_due)
                continue  # else an earlier-or-equal mux wakeup is pending
            wakeup = node._wakeup
            if wakeup is not None:
                if wakeup.time <= next_due and not wakeup.cancelled:
                    continue  # an earlier-or-equal wakeup is already pending
                wakeup.cancel()
            node._wakeup = node._sim.schedule(next_due, node.poll)

    def _receive_each(self, machines, packet, src, now) -> None:
        """The rare shapes: several machines on one node, or none left."""
        for machine in machines:
            actions = machine.handle(packet, src, now)
            if actions:
                self.execute(actions)
                if not self.alive:
                    return  # the other machines never see the packet
        self._reschedule()

    def poll(self) -> None:
        self._wakeup = None
        if self.paused:
            return
        now = self._sim.now + self.clock_skew
        machines = self.machines
        if len(machines) == 1:
            machine = machines[0]
            due = machine.next_wakeup()
            if due is not None and due > now:
                # Stale wakeup: every deadline moved later since this
                # poll was scheduled (the receiver watchdog re-arms on
                # each packet, and _reschedule keeps the earlier wakeup
                # rather than cancelling it).  The machine declares
                # nothing due, so re-arm without entering it — in steady
                # traffic this skips a quarter of all machine entries.
                if self.clock_skew:
                    due = due - self.clock_skew
                self._arm(due)
                return
            actions = machine.poll(now)
            if actions:
                self.execute(actions)
        else:
            next_due = None
            for machine in machines:
                due = machine.next_wakeup()
                if due is not None and (next_due is None or due < next_due):
                    next_due = due
            if next_due is not None and next_due > now:
                if self.clock_skew:
                    next_due = next_due - self.clock_skew
                self._arm(next_due)
                return
            for machine in machines:
                actions = machine.poll(now)
                if actions:
                    self.execute(actions)
        self._reschedule()

    def execute(self, actions: list[Action]) -> None:
        """Carry out protocol actions against the simulated network.

        The isinstance chain is ordered by observed frequency: data
        deliveries dominate every scenario, then repair unicasts, then
        control multicasts; group churn is start-up only.
        """
        for action in actions:
            if isinstance(action, Deliver):
                self.delivered.append(action)
                if self._on_deliver is not None:
                    self._on_deliver(action, self._sim.now)
            elif isinstance(action, SendUnicast):
                self._network.send_unicast(self.name, action.dest, action.packet)
            elif isinstance(action, SendMulticast):
                self._network.send_multicast(self.name, action.group, action.packet, action.ttl)
            elif isinstance(action, Notify):
                self.events.append(action.event)
                if self._on_event is not None:
                    self._on_event(action.event, self._sim.now)
            elif isinstance(action, JoinGroup):
                self._network.join(action.group, self.name)
            elif isinstance(action, LeaveGroup):
                self._network.leave(action.group, self.name)
            else:  # pragma: no cover - future action types
                raise TypeError(f"unknown action {action!r}")

    # -- app-facing helpers ----------------------------------------------------

    def send_app(self, machine, payload: bytes) -> None:
        """Have a sender machine multicast application data now."""
        self.execute(machine.send(payload, self._machine_now()))
        self._reschedule()

    def run_machine(self, fn, *args) -> None:
        """Execute ``fn(*args)`` returning actions, then reschedule."""
        self.execute(fn(*args))
        self._reschedule()

    def events_of(self, event_type) -> list[Event]:
        """All observed events of ``event_type`` so far."""
        return [e for e in self.events if isinstance(e, event_type)]

    # -- fault injection ----------------------------------------------------

    def crash(self) -> None:
        """Kill the node: machines detach, pending wakeups die.

        Inbound packets are silently lost while crashed — exactly the
        behaviour of the hand-rolled ``machines.clear()`` idiom, but
        reversible via :meth:`restart`.
        """
        if self.crashed:
            return
        self.crashed = True
        self._stashed_machines = self.machines
        self.machines = []
        self._disarm()

    def restart(self) -> None:
        """Bring a crashed node back with its machines' state intact.

        Models a process restart recovering from its persistent state
        (loggers spool to disk, §2.2; receivers re-arm their watchdogs):
        every machine's ``start`` hook runs again, re-joining groups
        (idempotent) and re-arming timers, then gaps accumulated while
        dead surface through the normal heartbeat/gap machinery.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.machines = self._stashed_machines
        self._stashed_machines = []
        self.start()

    def pause(self) -> None:
        """Stop responding without dying (a stop-the-world pause)."""
        if self.paused:
            return
        self.paused = True
        self._disarm()

    def resume(self) -> None:
        """End a :meth:`pause`; timers re-arm and fire from now on."""
        if not self.paused:
            return
        self.paused = False
        self._reschedule()

    # -- wakeup plumbing ----------------------------------------------------

    def _arm(self, at: float) -> None:
        """Schedule a poll at true sim time ``at`` (mux or direct event)."""
        mux = self._network.wakeup_mux
        if mux is not None:
            self._mux_due = at
            mux.arm(self, at)
        else:
            self._wakeup = self._sim.schedule(at, self.poll)

    def _disarm(self) -> None:
        # A mux bucket holding us just goes stale (its fire loop checks
        # _mux_due); a direct event is cancelled for real.
        self._mux_due = None
        wakeup = self._wakeup
        if wakeup is not None:
            wakeup.cancel()
            self._wakeup = None

    def _reschedule(self) -> None:
        if self.paused:
            return  # resume() re-arms
        # Runs after every delivery; min() over a comprehension allocates
        # two lists per packet, so fold the minimum inline instead (and
        # skip the loop entirely for the common single-machine node).
        machines = self.machines
        if len(machines) == 1:
            next_due = machines[0].next_wakeup()
        else:
            next_due = None
            for machine in machines:
                due = machine.next_wakeup()
                if due is not None and (next_due is None or due < next_due):
                    next_due = due
        if next_due is None:
            self._disarm()
            return
        if self.clock_skew:
            # Machines speak skewed time; the simulator runs true time.
            next_due = next_due - self.clock_skew
        mux = self._network.wakeup_mux
        if mux is not None:
            cur = self._mux_due
            if cur is not None and cur <= next_due:
                return  # an earlier-or-equal mux wakeup is pending
            self._mux_due = next_due
            mux.arm(self, next_due)
            return
        wakeup = self._wakeup
        if wakeup is not None:
            if wakeup.time <= next_due and not wakeup.cancelled:
                return  # an earlier-or-equal wakeup is already pending
            wakeup.cancel()
        self._wakeup = self._sim.schedule(next_due, self.poll)
