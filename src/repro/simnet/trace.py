"""Protocol-level packet counts for experiments.

:class:`PacketTrace` is the query view over the per-packet-type
delivery/drop counts a :class:`~repro.simnet.topology.Network` keeps,
split into intra-site and cross-site traffic.  Cross-site counts are the
paper's currency: Figure 7's claim is that distributed logging cuts the
NACKs *crossing the tail circuits and WAN* from one per receiver to one
per site.
"""

from __future__ import annotations

from collections import Counter

from repro.core.packets import PacketType
from repro.simnet.topology import Network

__all__ = ["PacketTrace"]


class PacketTrace:
    """Counts of a simulated network's traffic, by type and scope.

    The network tallies them itself, per co-timed batch and per drop
    (cross-site means on another site than the source host's); this is
    the view.  A caller that wants per-packet records installs
    ``network.observer``, the way
    :class:`~repro.simnet.hierarchy.HierarchyRuntime` does.
    """

    def __init__(self, network: Network) -> None:
        # The network's (kind, ptype, cross_site) -> [count, mirror]
        # cells: it mutates this dict in place, never rebinds it.
        self._cells = network._packet_cells

    @property
    def counts(self) -> Counter:
        """(kind, ptype, cross_site) -> count, as a Counter view."""
        return Counter({key: cell[0] for key, cell in self._cells.items()})

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

    def _count(self, kind: str, ptype: PacketType, cross_site: bool | None) -> int:
        cells = self._cells
        scopes = (False, True) if cross_site is None else (cross_site,)
        return sum(cells[key][0] for key in [(kind, ptype, cross) for cross in scopes] if key in cells)
