"""Protocol-level packet tracing for experiments.

:class:`PacketTrace` installs itself as the network observer and keeps
per-packet-type delivery/drop counts, split into intra-site and
cross-site traffic.  Cross-site counts are the paper's currency: Figure
7's claim is that distributed logging cuts the NACKs *crossing the tail
circuits and WAN* from one per receiver to one per site.
"""

from __future__ import annotations

from collections import Counter

from repro import obs
from repro.core.packets import Packet, PacketType
from repro.simnet.topology import Network

__all__ = ["PacketTrace"]


class PacketTrace:
    """Counting observer for a simulated network.

    It keeps counts only.  A caller that wants per-packet records chains
    its own observer in front (``network.observer``, the way
    :class:`~repro.simnet.hierarchy.HierarchyRuntime` does).
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        # (kind, ptype, cross_site) -> [count, mirror_instrument_or_None].
        # A two-slot list cell costs one dict hit per observation; the
        # registry instrument rides in the cell only while a recording
        # registry is installed, so the common unrecorded run never pays
        # a no-op inc() call.  ``counts`` materializes the Counter view.
        self._cells: dict[tuple, list] = {}
        self._registry = obs.registry()
        network.observer = self.observe

    @property
    def counts(self) -> Counter:
        """(kind, ptype, cross_site) -> count, as a Counter view."""
        return Counter({key: cell[0] for key, cell in self._cells.items()})

    def _cell(self, key: tuple) -> list:
        reg = self._registry
        instrument = None
        if reg.enabled:
            instrument = reg.counter(
                "simnet.packets",
                kind=key[0],
                ptype=PacketType(key[1]).name,
                scope="cross" if key[2] else "local",
            )
        cell = self._cells[key] = [0, instrument]
        return cell

    def observe(self, kind: str, packet: Packet, src: str, hosts, now: float) -> None:
        """Count ``packet`` ("rx" or "drop") at each of ``hosts``: cross-site
        for a host on another site than ``src``'s (a source with no host
        counts as local everywhere)."""
        src_host = self._network._hosts.get(src)
        n_cross = 0
        if src_host is not None:
            src_site = src_host.site
            for host in hosts:
                if host.site is not src_site:
                    n_cross += 1
        # PacketType is an IntEnum: as a dict key it hashes/compares
        # like its int value, so skip the per-packet int() conversion.
        ptype = packet.TYPE
        cells = self._cells
        for cross, n in ((False, len(hosts) - n_cross), (True, n_cross)):
            if not n:
                continue
            key = (kind, ptype, cross)
            cell = cells.get(key)
            if cell is None:
                cell = self._cell(key)
            cell[0] += n
            if cell[1] is not None:
                cell[1].inc(n)

    # -- queries ----------------------------------------------------------

    def delivered(self, ptype: PacketType, cross_site: bool | None = None) -> int:
        """Packets of ``ptype`` delivered (optionally filtered by scope)."""
        return self._count("rx", ptype, cross_site)

    def dropped(self, ptype: PacketType, cross_site: bool | None = None) -> int:
        return self._count("drop", ptype, cross_site)

    def attempted(self, ptype: PacketType, cross_site: bool | None = None) -> int:
        """Delivered + dropped — i.e. traffic that entered the network."""
        return self.delivered(ptype, cross_site) + self.dropped(ptype, cross_site)

    def cross_site_nacks(self) -> int:
        """NACKs that left their site — the Figure 7 metric."""
        return self.attempted(PacketType.NACK, cross_site=True)

    def reset(self) -> None:
        self._cells.clear()

    def _cell_count(self, key: tuple) -> int:
        cell = self._cells.get(key)
        return cell[0] if cell is not None else 0

    def _count(self, kind: str, ptype: PacketType, cross_site: bool | None) -> int:
        if cross_site is None:
            return self._cell_count((kind, int(ptype), True)) + self._cell_count(
                (kind, int(ptype), False)
            )
        return self._cell_count((kind, int(ptype), cross_site))
