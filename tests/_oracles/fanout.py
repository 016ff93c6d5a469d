"""The per-receiver fan-out, and one engine event per node wakeup.

``use_reference(net)``, on a network no node has armed on yet, swaps in
a ``send_multicast`` that decides member by member and a ``WakeupMux``
stand-in that shares nothing: the oracle the shipped paths must replay.
"""

import types

from repro.simnet.topology import Network, wire_size


def use_reference(net: Network) -> Network:
    net.send_multicast = types.MethodType(_send_multicast, net)
    net.wakeup_mux = _WakeupPerArm(net.sim)
    return net


def effective_due(node) -> float | None:
    """The deadline the mux reads for ``node``: its cohort's for a
    cohort member's node, which keeps none of its own, else ``_due``."""
    cohort = None if node._receiver is None else node._receiver._cohort
    return node._due if cohort is None else cohort._maxit_deadline


def _send_multicast(net: Network, src_name: str, group: str, packet, ttl=None) -> None:
    src = net._hosts[src_name]
    net.stats["multicast_sent"] += 1
    now, size = net.sim.now, wire_size(packet)
    exits: dict = {}  # each link's outcome, charged once per transmission
    for dst in filter(None, map(net._hosts.get, net._sorted_members(group))):
        links, hops = net.path(src, dst)
        if dst is src or (ttl is not None and hops > ttl):
            continue
        at = now
        for link in links:
            if link not in exits:
                exits[link] = link.transit(size, at)
            at = exits[link]
            if at is None:
                break
        cross = dst.site is not src.site
        if at is None:
            net._drop(packet, src_name, (dst,), now, cross)
        else:
            net._deliver(dst, packet, src_name, at, cross)


class _WakeupPerArm:
    """``WakeupMux``'s contract with one event per arm, nothing shared."""

    def __init__(self, sim) -> None:
        self._sim = sim

    def arm(self, node, due: float) -> None:
        self._sim.schedule(due, self._fire, node, due)

    def _fire(self, node, due: float) -> None:
        if node._mux_due != due:
            return  # stale: disarmed, or armed again for an earlier deadline
        due = effective_due(node)
        if due > self._sim.now:
            node._mux_due = due
            self.arm(node, due)
        else:
            node._mux_due = None
            node.poll()
