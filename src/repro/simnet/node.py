"""Binding protocol machines to simulated hosts.

A :class:`SimNode` is the simulated network's
:class:`~repro.core.node.MachineNode`: the base holds the machines, the
taps, the action loop and the fault model; this class adds the medium.
Its primitives send through the :class:`~repro.simnet.topology.Network`,
and in the simulator an address *is* the host name, so token parsing is
the identity.

Delivery is run-level: :meth:`SimNode.receive_batch` hands each run of
co-timed *plain* receiver nodes to
:func:`~repro.core.receiver.absorb_run` in one call, and only what that
does not absorb takes the per-node path; a run of a
:class:`~repro.core.receiver.Cohort`, receivers sharing one state, is
absorbed once.  Plainness is read per node at the moment the run is
cut, partly from ``_receiver`` (the node's one machine, when it is an
:class:`LbrmReceiver`), which is kept in step with ``machines``: so
``machines`` changes only through the constructor, ``add_machine``,
``crash`` and ``restart``, which (with ``pause`` and a ``clock_skew``
write) have a cohort member leave first.

Wakeups are armed through the network's
:class:`~repro.simnet.engine.WakeupMux`, which shares one event among
every node armed for the same deadline; nothing is ever cancelled, a
wakeup no longer wanted goes stale.  The node records ``_due``, the
true-time deadline its machines declared when it last asked them: the
mux re-buckets a node whose ``_due`` is still ahead without polling it.
A cohort member's node records none, nor its deliveries: the cohort
keeps both once, and the node takes them back when its ``delivered`` is
read or its member leaves (DESIGN §6).
So whatever changes a machine's ``next_wakeup()`` must be followed
by a node call that asks again — ``receive``, ``poll``, ``start``,
``send_app``, ``run_machine``, ``resume``, ``restart``, a
``clock_skew`` write — never by nothing.  Likewise a node is killed
with ``crash``, which disarms it, not by emptying ``machines`` by hand.
"""

from __future__ import annotations

import math
from operator import is_not
from typing import TYPE_CHECKING

from repro.core.actions import Deliver, handle_each, run_actions
from repro.core.machine import ProtocolMachine, earliest_wakeup
from repro.core.node import MachineNode
from repro.core.packets import Packet, RetransPacket
from repro.core.receiver import RUN_PACKETS, Cohort, LbrmReceiver, absorb_run, form_cohorts
from repro.simnet.engine import Simulator

if TYPE_CHECKING:  # topology imports this module for the delivery loop
    from repro.simnet.topology import Host, Network

__all__ = ["SimNode"]


class SimNode(MachineNode):
    """A host's protocol stack inside the simulation."""

    def __init__(self, network: Network, host: Host, machines: list[ProtocolMachine] | None = None) -> None:
        self._network = network
        self._sim: Simulator = network.sim
        self.host = host
        super().__init__(machines)
        # Deadline armed on the network's WakeupMux, or None.
        # The mux fires us by calling poll(); it clears this first.  A
        # value that no longer matches any live bucket is simply stale —
        # mux cancellation is lazy (see WakeupMux).
        self._mux_due: float | None = None
        # The machines' earliest deadline in true time, as of the last
        # time we asked (None when disarmed, and while our receiver is a
        # cohort member: its deadline is the cohort's).  Never earlier
        # than _mux_due while armed, so a bucket firing before it is
        # stale: the mux re-buckets us at _due instead of polling.
        self._due: float | None = None
        self._log_at = 0  # a member's node: how much of its cohort's log it holds
        host.attach(self)

    @property
    def name(self) -> str:
        return self.host.name

    # In the simulator an address *is* the host name.
    address = name

    @property
    def now(self) -> float:  # what the taps are stamped with: unskewed
        return self._sim.now

    def _set_machines(self, machines: list[ProtocolMachine]) -> None:
        """Install ``machines``, and ``_receiver``: the one machine when it
        is an :class:`LbrmReceiver`, else None — the half of a node's
        plainness (:meth:`receive_batch`) that only this call changes, so
        the run cut reads one attribute instead of the list."""
        self.machines = machines
        only = machines[0] if len(machines) == 1 else None
        self._receiver = only if type(only) is LbrmReceiver else None

    def _leave_cohort(self) -> None:
        """A member whose node stops being plain leaves its cohort first."""
        if self._receiver is not None:
            self._receiver._leave_cohort()

    # -- a cohort member's node (DESIGN §6): the hooks Cohort calls -------------

    @property
    def delivered(self) -> list[Deliver]:
        """What the machines delivered.  A member's node takes what its
        cohort logged since it last looked first, and stays a member."""
        receiver = self._receiver
        if receiver is not None and receiver._cohort is not None:
            self._catch_up(receiver._cohort.log)
        return self._delivered

    @delivered.setter
    def delivered(self, value: list[Deliver]) -> None:
        self._delivered = value

    def _enter(self, cohort: Cohort) -> None:
        """Our receiver joined ``cohort``: its deliveries and deadline are
        kept there from now on, and our arm bounds its ``armed``."""
        self._log_at, self._due = len(cohort.log), None
        armed = self._mux_due
        if armed is None or armed > cohort.armed:
            cohort.armed = math.inf if armed is None else armed

    def _catch_up(self, log: list[Deliver]) -> None:
        self._delivered += log[self._log_at :]
        self._log_at = len(log)

    def _exit(self, cohort: Cohort) -> None:
        """Our receiver left ``cohort``: take back what it kept for us."""
        self._catch_up(cohort.log)
        self._due = cohort._maxit_deadline

    # -- the harness contract ---------------------------------------------------

    def receive(self, packet: Packet, src: str, now: float) -> None:
        """Network delivery entry point for one host (unicast and chaos
        arrivals)."""
        SimNode.receive_batch([self], packet, src, now)

    @staticmethod
    def receive_batch(endpoints: list, packet: Packet, src: str, now: float) -> None:
        """Deliver ``packet`` to each endpoint in turn: the one delivery
        loop, entered by :class:`Network` once per co-timed batch.

        A co-timed batch is mostly receivers in lockstep (DESIGN §6).  For
        a data packet, a heartbeat, a repair or a packet a receiver
        ignores, a cohort member starts a cohort run: the cohort's kept
        ``span`` if the batch matches it, else :meth:`_span` re-cuts it.
        :func:`~repro.core.receiver.absorb_run` takes the run as one
        receiver; if its guard fails, the cohort dissolves and each
        member, in one state, takes the per-node path.  Any other
        maximal run of *plain* nodes — a ``SimNode`` not paused, unskewed,
        whose one machine is an :class:`LbrmReceiver` in no cohort — goes
        to ``absorb_run`` member by member in one call: those it absorbs
        get the shared ``Deliver`` and their wakeup in one loop, then join
        the cohort beside them or form cohorts.  A cohort run costs its
        members nothing per packet: the cohort logs the ``Deliver`` once
        (:meth:`_settle_span`).  The first member
        not absorbed, and every other endpoint, takes the per-node path at
        its own position, and the run is cut again after it: its taps may
        pause or crash a later member of the batch, so nothing is read
        ahead of a node that may run one.  Every node thus sees the batch
        in order, and mux arms, ``schedule`` calls and RNG draws keep the
        order a per-node loop gives them.
        """
        runs = type(packet) in RUN_PACKETS
        # A packet that moves no shared state: a cohort's run absorbs it
        # (a repair its members hold, a probe they ignore), lone ones not.
        inert = not runs and (type(packet) is RetransPacket or type(packet) not in LbrmReceiver._HANDLED)
        failed, failing = None, iter(())  # a dissolved cohort's next member
        edge = (-1, None)  # where the last absorbed run ended: its cohort, or its lone nodes
        i, n = 0, len(endpoints)
        while i < n:
            node = endpoints[i]
            if node is failed:
                failed = next(failing, None)
            elif (runs or inert) and type(node) is SimNode and node._receiver is not None:
                cohort = node._receiver._cohort
                if cohort is not None:
                    span = cohort.span
                    stop = i + len(span)
                    if endpoints[i:stop] != span or (cohort.strays and not SimNode._still_strays(cohort)):
                        cohort, stop = SimNode._span(cohort, endpoints, i)
                if cohort is not None:
                    delivery, dues = absorb_run((cohort,), packet, now)
                    if not dues:
                        failing = iter(cohort.ends[1:])
                        failed = next(failing, None)
                        cohort.dissolve()
                    else:
                        if delivery is not None:  # first: a node that joins has settled
                            cohort.log.append(delivery)
                        if not cohort.strays and edge[0] == i and type(edge[1]) is list:
                            for node in reversed(edge[1]):  # lone ones just before join
                                if not cohort.admit(0, node._receiver, node):
                                    break
                        SimNode._settle_span(cohort, packet, dues[0], src, now)
                        if not cohort.strays:
                            edge = (stop, cohort)
                        i = stop
                        continue
                elif runs:
                    machines = []
                    j = i
                    while j < n:
                        node = endpoints[j]
                        if type(node) is not SimNode:
                            break
                        receiver = node._receiver
                        if receiver is None or receiver._cohort is not None or node.paused or node._skew:
                            break
                        machines.append(receiver)
                        j += 1
                    delivery, dues = absorb_run(machines, packet, now) if machines else (None, ())
                    nodes = endpoints[i : i + len(dues)]
                    if dues:  # settle the lone nodes, then have them join
                        arm = nodes[0]._network.wakeup_mux.arm
                        for node, due in zip(nodes, dues):
                            if delivery is not None:
                                node._delivered.append(delivery)
                            node._due = due
                            cur = node._mux_due
                            if cur is None or cur > due:
                                node._mux_due = due
                                arm(node, due)
                        if edge[0] == i and type(edge[1]) is Cohort:  # ones just after a cohort join it
                            for node in nodes:
                                if not edge[1].admit(len(edge[1].ends), node._receiver, node):
                                    break
                        if len(dues) > 1:
                            form_cohorts(machines[: len(dues)], nodes)
                    i += len(dues)
                    edge = (i, nodes)
                    if dues and len(dues) == len(machines):
                        continue  # else the one not absorbed takes the per-node path
            # The per-node path.
            node = endpoints[i]
            i += 1
            if not isinstance(node, SimNode):
                if node is not None:
                    node.receive(packet, src, now)
                continue
            if node.paused:
                continue  # alive but unresponsive: inbound traffic is lost
            skew = node._skew
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
            if node._receiver is None or node._receiver._cohort is None:
                node._due = next_due  # (a member that held a retransmission stays one)
            cur = node._mux_due
            if cur is None or cur > next_due:  # else an earlier-or-equal wakeup is pending
                node._mux_due = next_due
                node._network.wakeup_mux.arm(node, next_due)

    @staticmethod
    def _span(cohort, endpoints: list, i: int) -> tuple:
        """``(cohort, stop)``, the run from ``endpoints[i]`` when the batch
        does not match the cohort's kept ``span`` (``(None, i)`` if its
        member is left alone).  The common miss, one member inside the
        span skipped (its own loss draw) and all else as kept, costs slice
        compares and that member's leave: the layout stands, the loser a
        stray in it where it stood.  Any other miss :meth:`_walk` walks."""
        span, kept = cohort.span, cohort.strays
        n = len(span)
        got = endpoints[i : i + n - 1]
        if n > 2 and len(got) == n - 1 and got[0] is cohort.ends[0] and (not kept or SimNode._still_strays(cohort)):
            misses = list(map(is_not, got, span))
            m = misses.index(True) if True in misses else 0  # 0: the last one skipped, a walk
            loser = span[m]._receiver if m and got[m:] == span[m + 1 :] else None
            if loser is not None and loser._cohort is cohort:
                layout = list(span) if span is cohort.ends else span  # the leave changes ends
                loser._leave_cohort()
                if not cohort.members:
                    return None, i
                # A kept stray j stands at layout place k + j; past the loser
                # it has one member less before it.
                strays, before = [], 0
                for j, (k, node, _here) in enumerate(kept):
                    if k + j < m:
                        strays.append((k, node, True))
                        before += 1
                    else:
                        strays.append((k - 1, node, True))
                strays.insert(before, (m - before, layout[m], False))
                cohort.span, cohort.strays = layout, strays
                return cohort, i + n - 1
        return SimNode._walk(cohort, endpoints, i)

    @staticmethod
    def _walk(cohort, endpoints: list, i: int) -> tuple:
        """:meth:`_span` by walking the batch.  A member the batch skips,
        or holds past what the run cannot span (a tap, another cohort),
        leaves.  Tap-free nodes in no cohort between members are spanned,
        the run's strays: they cannot touch a member before its turn.
        The cohort keeps the run's layout as its ``span``, with a member
        that left here as a stray where it stood, so the next run, the
        loser back, matches it whole."""
        for _ in range(cohort.ends.index(endpoints[i])):  # skipped: not here
            cohort.members[0]._leave_cohort()
        ends, k, j = cohort.ends, 1, i + 1
        stop = j
        layout, strays, between = [endpoints[i]], [], []
        while k < len(ends) and j < len(endpoints):
            node = endpoints[j]
            if node is ends[k]:
                k, j = k + 1, j + 1
                stop = j
                if between:
                    strays += between
                    layout += [stray for _k, stray, _here in between]
                    between = []
                layout.append(node)
            elif type(node) is not SimNode or node.on_event is not None or node.on_send is not None:
                break
            elif node._receiver is not None and node._receiver._cohort is cohort:
                between.append((k, ends[k], False))  # skipped: not here
                cohort.members[k]._leave_cohort()
            elif node._receiver is None or node._receiver._cohort is None:
                between.append((k, node, True))  # after the first k members
                j += 1
            else:
                break
        while k < len(ends):  # skipped, or past what the run can span
            cohort.members[k]._leave_cohort()
        if not cohort.members:
            return None, i
        cohort.span, cohort.strays = (layout, strays) if strays else (cohort.ends, ())
        return cohort, stop

    @staticmethod
    def _still_strays(cohort) -> bool:
        """Whether the strays a cohort's ``span`` holds can still be spanned
        (a tap set since, or a cohort joined, ends that)."""
        for _k, node, _here in cohort.strays:
            if node.on_event is not None or node.on_send is not None or (
                node._receiver is not None and node._receiver._cohort is not None
            ):
                return False
        return True

    @staticmethod
    def _settle_span(cohort, packet: Packet, due: float, src: str, now: float) -> None:
        """Settle a cohort's run: arm each member's node not armed by
        ``due``, in order, and deliver to each stray at its position (a
        lone one back in the cohort's state joins).  A run due no earlier
        than the cohort's bound looks at no member, only at its strays."""
        ends = cohort.ends
        arm = ends[0]._network.wakeup_mux.arm if due < cohort.armed else None
        done = 0  # members settled so far
        if cohort.strays:
            left, joined = [], 0
            for k, node, here in cohort.strays:
                k += joined  # members before it, those that joined ahead of it too
                if arm is not None:
                    SimNode._arm(ends[done:k], due, arm)
                done = k
                if here:
                    SimNode.receive_batch([node], packet, src, now)
                    receiver = node._receiver
                    if receiver is not None and not node.paused and not node._skew and cohort.admit(k, receiver, node):
                        joined += 1
                        done = k + 1  # it settled itself
                        continue
                left.append((k, node, True))
            if left:
                cohort.strays = left
            else:
                cohort.span, cohort.strays = ends, ()
        if arm is not None:
            SimNode._arm(ends[done:] if done else ends, due, arm)
        cohort.armed = due  # the deadline: no member is armed later

    @staticmethod
    def _arm(nodes: list, due: float, arm) -> None:
        """Arm each of ``nodes`` not armed by ``due``, in order."""
        for node in nodes:
            cur = node._mux_due
            if cur is None or cur > due:
                node._mux_due = due
                arm(node, due)

    def poll(self) -> None:
        if self.paused:
            return
        now = self._sim.now + self._skew
        due = earliest_wakeup(self.machines)
        if due is not None and due > now:
            # Stale wakeup: every deadline moved later since this poll
            # was scheduled (the receiver watchdog re-arms on each
            # packet, and _reschedule keeps the earlier wakeup rather
            # than cancelling it), so re-arm without entering a machine.
            # Only a direct call gets here (the mux re-buckets a stale
            # node from _due instead), or a skewed node whose deadline is
            # a rounding error ahead of ``now`` in its own time but not in
            # true time: it re-arms just after now, or it would be polled
            # at this instant for ever.
            at = due - self._skew if self._skew else due
            if at <= self._sim.now:
                at = math.nextafter(self._sim.now, math.inf)
            if self._receiver is None or self._receiver._cohort is None:
                self._due = at  # a member's is its cohort's
            self._mux_due = at
            self._network.wakeup_mux.arm(self, at)
            return
        self._poll_machines(now)

    # -- the primitives run_actions carries actions out with ------------------

    def unicast(self, dest: str, packet: Packet) -> None:
        self._network.send_unicast(self.name, dest, packet)

    def multicast(self, group: str, packet: Packet, ttl: int | None) -> None:
        self._network.send_multicast(self.name, group, packet, ttl)

    def join_group(self, group: str) -> None:
        self._network.join(group, self.name)

    def leave_group(self, group: str) -> None:
        self._network.leave(group, self.name)

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
        if self._skew:
            # Machines speak skewed time; the simulator runs true time.
            next_due = next_due - self._skew
        if self._receiver is None or self._receiver._cohort is None:
            self._due = next_due  # a member's is its cohort's
        cur = self._mux_due
        if cur is not None and cur <= next_due:
            return  # an earlier-or-equal wakeup is pending
        self._mux_due = next_due
        self._network.wakeup_mux.arm(self, next_due)
