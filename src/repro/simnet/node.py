"""Binding protocol machines to simulated hosts.

A :class:`SimNode` owns one or more sans-IO machines on one host.  It
dispatches inbound packets to every machine, has
:func:`~repro.core.actions.run_actions` carry out the actions they return
through its primitives (``unicast``/``multicast`` via the network,
``join_group``/``leave_group``, ``deliver`` into its ``delivered`` list;
events land in ``events``), and keeps each machine's next wakeup
scheduled on the simulator.  Its two taps, ``on_event`` and ``on_send``,
are the ones the chaos oracle chains.

The node is also where LBRM's address tokens resolve: in the simulator
an address *is* the host name, so token parsing is the identity.

Delivery is run-level: :meth:`SimNode.receive_batch` hands each run of
co-timed *plain* receiver nodes to
:func:`~repro.core.receiver.absorb_run` in one call, and only what that
does not absorb takes the per-node path.  Plainness is read per node at
the moment the run is cut, partly from ``_receiver`` (the node's one
machine, when it is an :class:`LbrmReceiver`), which is kept in step
with ``machines``: so ``machines`` changes only through the constructor,
``add_machine``, ``crash`` and ``restart``.

Fault-injection hooks (used by :mod:`repro.chaos`): a node can be
*crashed* (machines detached, inbound traffic lost), *restarted* (each
machine's ``restart`` keeps what it declares a crash keeps, DESIGN §7),
*paused*/*resumed* (alive but unresponsive), and given a *clock skew*
(an offset on the time its machines observe, not on the simulation's).

Wakeups are armed through the network's
:class:`~repro.simnet.engine.WakeupMux`, which shares one event among
every node armed for the same deadline; nothing is ever cancelled, a
wakeup no longer wanted goes stale.  The node records ``_due``, the
true-time deadline its machines declared when it last asked them: the
mux re-buckets a node whose ``_due`` is still ahead without polling it.
So whatever changes a machine's ``next_wakeup()`` must be followed
by a node call that asks again — ``receive``, ``poll``, ``start``,
``send_app``, ``run_machine``, ``resume``, ``restart`` or
``_reschedule`` — never by nothing.  Likewise a node is killed with
``crash``, which disarms it, not by emptying ``machines`` by hand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.actions import Action, Deliver, handle_each, run_actions
from repro.core.events import Event
from repro.core.machine import ProtocolMachine, earliest_wakeup
from repro.core.packets import Packet
from repro.core.receiver import RUN_PACKETS, LbrmReceiver, absorb_run
from repro.simnet.engine import Simulator

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
        on_event: Callable[[Event, float], None] | None = None,
    ) -> None:
        self._network = network
        self._sim: Simulator = network.sim
        self.host = host
        self._set_machines(list(machines or []))
        # Public taps (the chaos oracle chains them): fn(event, now) per
        # Notify, fn(action, now) before each SendUnicast/SendMulticast.
        self.on_event = on_event
        self.on_send: Callable[[Action, float], None] | None = None
        # Deadline armed on the network's WakeupMux, or None.
        # The mux fires us by calling poll(); it clears this first.  A
        # value that no longer matches any live bucket is simply stale —
        # mux cancellation is lazy (see WakeupMux).
        self._mux_due: float | None = None
        # The machines' earliest deadline in true time, as of the last
        # time we asked (None when disarmed).  Never earlier
        # than _mux_due while armed, so a bucket firing before it is
        # stale: the mux re-buckets us at _due instead of polling.
        self._due: float | None = None
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

    # In the simulator an address *is* the host name.
    address = name

    @property
    def now(self) -> float:  # what the taps are stamped with: unskewed
        return self._sim.now

    @property
    def alive(self) -> bool:
        """Neither crashed nor paused."""
        return not self.crashed and not self.paused

    def _machine_now(self) -> float:
        return self._sim.now + self.clock_skew

    # -- machine management ----------------------------------------------------

    def _set_machines(self, machines: list[ProtocolMachine]) -> None:
        """Install ``machines``, and ``_receiver``: the one machine when it
        is an :class:`LbrmReceiver`, else None — the half of a node's
        plainness (:meth:`receive_batch`) that only this call changes, so
        the run cut reads one attribute instead of the list."""
        self.machines = machines
        only = machines[0] if len(machines) == 1 else None
        self._receiver = only if type(only) is LbrmReceiver else None

    def add_machine(self, machine: ProtocolMachine) -> None:
        self.machines.append(machine)
        self._set_machines(self.machines)
        self._reschedule()

    def start(self) -> None:
        """Call each machine's ``start`` hook and arm timers."""
        for machine in self.machines:
            run_actions(machine.start(self._machine_now()), self)
        self._reschedule()

    # -- the harness contract ---------------------------------------------------

    def receive(self, packet: Packet, src: str, now: float) -> None:
        """Network delivery entry point for one host (unicast and chaos
        arrivals)."""
        SimNode.receive_batch((self,), packet, src, now)

    @staticmethod
    def receive_batch(endpoints, packet: Packet, src: str, now: float) -> None:
        """Deliver ``packet`` to each endpoint in turn: the one delivery
        loop, entered by :class:`Network` once per co-timed batch.

        A co-timed batch is mostly receivers in lockstep (DESIGN §6), so it
        is cut into maximal runs of *plain* nodes — a ``SimNode`` not
        paused, unskewed, whose one machine is an :class:`LbrmReceiver` —
        and each run of a data packet or heartbeat goes to
        :func:`~repro.core.receiver.absorb_run` in one call, which takes it
        on the receivers' fast path as far as it can.  The absorbed members
        then get the shared ``Deliver`` and their wakeup in one loop.  The
        first member not absorbed, and every other endpoint, takes the
        per-node path at its own position, and the run is cut again after
        it: its ``on_event``/``on_send`` taps may pause or crash a later
        member of the same batch, so nothing is read ahead of a node that
        may run one.  Every node thus sees the batch in order, and mux
        arms, ``schedule`` calls and RNG draws keep the order a per-node
        loop gives them.
        """
        runs = type(packet) in RUN_PACKETS
        i, n = 0, len(endpoints)
        while i < n:
            if runs:
                machines = []
                j = i
                while j < n:
                    node = endpoints[j]
                    if type(node) is not SimNode:
                        break
                    receiver = node._receiver
                    if receiver is None or node.paused or node.clock_skew:
                        break
                    machines.append(receiver)
                    j += 1
                if machines:
                    delivery, dues = absorb_run(machines, packet, now)
                    if dues:
                        mux = endpoints[i]._network.wakeup_mux
                        for due in dues:
                            node = endpoints[i]
                            i += 1
                            if delivery is not None:
                                node.delivered.append(delivery)
                            node._due = due
                            cur = node._mux_due
                            if cur is None or cur > due:
                                node._mux_due = due
                                mux.arm(node, due)
                        if i == n:
                            return
            # The per-node path.
            node = endpoints[i]
            i += 1
            if not isinstance(node, SimNode):
                if node is not None:
                    node.receive(packet, src, now)
                continue
            if node.paused:
                continue  # alive but unresponsive: inbound traffic is lost
            skew = node.clock_skew
            machines = node.machines
            if len(machines) != 1:
                # The rare shapes: several machines on one node, or none left.
                handle_each(machines, packet, src, now + skew, node)
                node._reschedule()
                continue
            machine = machines[0]
            actions = machine.handle(packet, src, now + skew if skew else now)
            if actions:
                run_actions(actions, node)
                if not node.alive:
                    continue  # an executed action stopped us; resume()/restart() re-arm
            next_due = machine.next_wakeup()
            if next_due is None:
                node._disarm()
                continue
            if skew:
                next_due = next_due - skew
            node._due = next_due
            cur = node._mux_due
            if cur is None or cur > next_due:  # else an earlier-or-equal wakeup is pending
                node._mux_due = next_due
                node._network.wakeup_mux.arm(node, next_due)

    def poll(self) -> None:
        if self.paused:
            return
        now = self._sim.now + self.clock_skew
        due = earliest_wakeup(self.machines)
        if due is not None and due > now:
            # Stale wakeup: every deadline moved later since this poll
            # was scheduled (the receiver watchdog re-arms on each
            # packet, and _reschedule keeps the earlier wakeup rather
            # than cancelling it), so re-arm without entering a machine.
            # Only a direct call gets here: the mux re-buckets a stale
            # node from _due instead.
            at = due - self.clock_skew if self.clock_skew else due
            self._due = self._mux_due = at
            self._network.wakeup_mux.arm(self, at)
            return
        for machine in self.machines:
            actions = machine.poll(now)
            if actions:
                run_actions(actions, self)
        self._reschedule()

    # -- the primitives run_actions carries actions out with ------------------

    def unicast(self, dest: str, packet: Packet) -> None:
        self._network.send_unicast(self.name, dest, packet)

    def multicast(self, group: str, packet: Packet, ttl: int | None) -> None:
        self._network.send_multicast(self.name, group, packet, ttl)

    def join_group(self, group: str) -> None:
        self._network.join(group, self.name)

    def leave_group(self, group: str) -> None:
        self._network.leave(group, self.name)

    def deliver(self, action: Deliver) -> None:
        self.delivered.append(action)

    # -- app-facing helpers ----------------------------------------------------

    def send_app(self, machine, payload: bytes) -> None:
        """Have a sender machine multicast application data now."""
        run_actions(machine.send(payload, self._machine_now()), self)
        self._reschedule()

    def run_machine(self, fn, *args) -> None:
        """Execute ``fn(*args)`` returning actions, then reschedule."""
        run_actions(fn(*args), self)
        self._reschedule()

    def events_of(self, event_type) -> list[Event]:
        """All observed events of ``event_type`` so far."""
        return [e for e in self.events if isinstance(e, event_type)]

    # -- fault injection ----------------------------------------------------

    def crash(self) -> None:
        """Kill the node: machines detach, pending wakeups die, and
        inbound packets are lost until :meth:`restart`."""
        if self.crashed:
            return
        self.crashed = True
        self._stashed_machines = self.machines
        self._set_machines([])
        self._disarm()

    def restart(self) -> None:
        """Bring a crashed node back: each machine's ``restart`` keeps
        what it declares a crash keeps (DESIGN §7) and starts again."""
        if not self.crashed:
            return
        self.crashed = False
        self._set_machines(self._stashed_machines)
        self._stashed_machines = []
        now = self._machine_now()
        for machine in self.machines:
            run_actions(machine.restart(now), self)
        self._reschedule()

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

    def _disarm(self) -> None:
        # A mux bucket holding us just goes stale (its fire loop checks
        # _mux_due).
        self._due = self._mux_due = None

    def _reschedule(self) -> None:
        if self.paused:
            return  # resume() re-arms
        next_due = earliest_wakeup(self.machines)  # in the machines' (skewed) time
        if next_due is None:
            self._disarm()
            return
        if self.clock_skew:
            # Machines speak skewed time; the simulator runs true time.
            next_due = next_due - self.clock_skew
        self._due = next_due
        cur = self._mux_due
        if cur is not None and cur <= next_due:
            return  # an earlier-or-equal wakeup is pending
        self._mux_due = next_due
        self._network.wakeup_mux.arm(self, next_due)
