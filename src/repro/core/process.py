"""Multi-group protocol processes.

§2.2.1, footnote 5: "When multicast sources are located at many sites,
as is the case in DIS, a single logging process may serve as the primary
logger for one group and as the secondary logger for another."

:class:`MultiGroupProcess` is a composite sans-IO machine hosting one
child machine per group and dispatching inbound packets by their
``group`` field.  It lets one OS process (one simulator node, one UDP
endpoint) be e.g. primary logger for the terrain groups it originates
and secondary logger for everything else its site subscribes to —
exactly the deployment shape DIS needs with thousands of fine-grained
groups.

Packets for groups without a registered machine are counted and dropped
(a logging process is not obliged to serve every group on its wire).
"""

from __future__ import annotations

from repro.core.actions import Action, Address
from repro.core.machine import ProtocolMachine, earliest_wakeup
from repro.core.packets import Packet
from repro.core.retranschannel import retrans_group

__all__ = ["MultiGroupProcess"]


class MultiGroupProcess(ProtocolMachine):
    """A composite machine dispatching by multicast group."""

    def __init__(self) -> None:
        super().__init__()
        self._machines: dict[str, list[ProtocolMachine]] = {}
        self.stats = {"unknown_group_packets": 0}

    # -- composition ----------------------------------------------------

    def add(self, group: str, machine: ProtocolMachine) -> None:
        """Attach ``machine`` as (one of) the handler(s) for ``group``.

        Several machines may share a group (e.g. a receiver plus a
        discovery client); each sees every packet for it.
        """
        self._machines.setdefault(group, []).append(machine)

    def remove(self, group: str, machine: ProtocolMachine) -> None:
        machines = self._machines.get(group, [])
        if machine in machines:
            machines.remove(machine)
        if not machines:
            self._machines.pop(group, None)

    def machines_for(self, group: str) -> tuple[ProtocolMachine, ...]:
        return tuple(self._machines.get(group, ()))

    @property
    def groups(self) -> frozenset[str]:
        return frozenset(self._machines)

    def __len__(self) -> int:
        return sum(len(m) for m in self._machines.values())

    # -- the machine contract ---------------------------------------------

    def start(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for machines in self._machines.values():
            for machine in machines:
                actions.extend(machine.start(now))
        return actions

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        # A packet on a retransmission channel belongs to its data group's
        # machines (the packet's group field names the data group).
        machines = self._machines.get(packet.group)
        if machines is None:
            machines = self._machines.get(retrans_group(packet.group))
        if not machines:
            self.stats["unknown_group_packets"] += 1
            return []
        actions: list[Action] = []
        for machine in list(machines):
            actions.extend(machine.handle(packet, src, now))
        return actions

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for machines in self._machines.values():
            for machine in machines:
                actions.extend(machine.poll(now))
        return actions

    def next_wakeup(self) -> float | None:
        return earliest_wakeup(m for machines in self._machines.values() for m in machines)
