"""Protocol-level packet tracing for experiments.

:class:`PacketTrace` installs itself as the network observer and keeps
per-packet-type delivery/drop counts, split into intra-site and
cross-site traffic.  Cross-site counts are the paper's currency: Figure
7's claim is that distributed logging cuts the NACKs *crossing the tail
circuits and WAN* from one per receiver to one per site.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro import obs
from repro.core.packets import Packet, PacketType
from repro.simnet.topology import Network

__all__ = ["TraceRecord", "PacketTrace"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced packet movement (kept only when ``keep_records``)."""

    time: float
    kind: str  # "rx" or "drop"
    ptype: int
    seq: int
    src: str
    dst: str
    cross_site: bool


class PacketTrace:
    """Counting observer for a simulated network."""

    def __init__(self, network: Network, keep_records: bool = False) -> None:
        self._network = network
        self._keep = keep_records
        self.records: list[TraceRecord] = []
        # (kind, ptype, cross_site) -> [count, mirror_instrument_or_None].
        # A two-slot list cell costs one dict hit per observation; the
        # registry instrument rides in the cell only while a recording
        # registry is installed, so the common unrecorded run never pays
        # a no-op inc() call.  ``counts`` materializes the Counter view.
        self._cells: dict[tuple, list] = {}
        self._registry = obs.registry()
        # Hosts never change sites, so (src, dst) -> cross-site resolves
        # to a dict hit after the first packet on each pair.
        self._site_cache: dict[tuple[str, str], bool] = {}
        network.observer = self.observe
        # Installed *after* the observer on purpose: assigning observer
        # clears batch_observer, and anything else replacing/wrapping the
        # observer (HierarchyRuntime chains it) clears it again — so the
        # amortized path can never bypass a foreign observer.
        network.batch_observer = self.observe_batch

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

    def observe(self, kind: str, packet: Packet, src: str, dst: str, now: float) -> None:
        pair = (src, dst)
        cross = self._site_cache.get(pair)
        if cross is None:
            cross = self._site_cache[pair] = self._cross_site(src, dst)
        # PacketType is an IntEnum: as a dict key it hashes/compares
        # like its int value, so skip the per-packet int() conversion.
        key = (kind, packet.TYPE, cross)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cell(key)
        cell[0] += 1
        if cell[1] is not None:
            cell[1].inc()
        if self._keep:
            seq = getattr(packet, "seq", getattr(packet, "cum_seq", 0))
            self.records.append(
                TraceRecord(
                    time=now,
                    kind=kind,
                    ptype=int(packet.TYPE),
                    seq=seq,
                    src=src,
                    dst=dst,
                    cross_site=cross,
                )
            )

    def observe_batch(self, packet: Packet, src: str, hosts: list, now: float) -> None:
        """Amortized ``observe``: one co-timed delivery batch per call.

        Byte-equivalent to per-host ``observe("rx", ...)`` calls — the
        per-scope counts are bumped by the batch totals, and record
        keeping falls back to the exact per-host path.
        """
        src_host = self._network._hosts.get(src)
        src_site = src_host.site if src_host is not None else None
        n_cross = 0
        if src_site is not None:
            for h in hosts:
                if h.site is not src_site:
                    n_cross += 1
        n_local = len(hosts) - n_cross
        ptype = packet.TYPE
        cells = self._cells
        for cross, n in ((False, n_local), (True, n_cross)):
            if not n:
                continue
            key = ("rx", ptype, cross)
            cell = cells.get(key)
            if cell is None:
                cell = self._cell(key)
            cell[0] += n
            if cell[1] is not None:
                cell[1].inc(n)
        if self._keep:
            seq = getattr(packet, "seq", getattr(packet, "cum_seq", 0))
            it = int(ptype)
            append = self.records.append
            for h in hosts:
                append(
                    TraceRecord(
                        time=now,
                        kind="rx",
                        ptype=it,
                        seq=seq,
                        src=src,
                        dst=h.name,
                        cross_site=src_site is not None and h.site is not src_site,
                    )
                )

    def _cross_site(self, src: str, dst: str) -> bool:
        try:
            return self._network.host(src).site is not self._network.host(dst).site
        except KeyError:
            return False

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
        self.records.clear()
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
