"""WAN topology with sites, tail circuits, and multicast routing.

The model mirrors the paper's Figure 1: hosts live on site LANs, each
site hangs off the wide-area backbone through a *tail circuit* (the
expensive, congestion-prone T1), and the backbone itself is fast and
lightly loaded.  Paths:

* same site:   ``LAN``                                    (1 hop)
* cross site:  ``LAN → tail-up → backbone → tail-down → LAN``  (4 hops)

so a TTL of 1 scopes a multicast to the sender's site — matching the
paper's use of the TTL field to keep secondary-logger repairs local
(§2.2.1).

Multicast follows a shared distribution tree: each link carries one copy
per transmission regardless of how many group members sit behind it, and
a loss on a link is shared by everyone downstream — which is what makes
"congestion on the incoming tail circuit causes packet loss at an entire
site" (§2.2.2) come out naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol, Sequence

from repro import obs
from repro.core.packets import Packet, PacketType, encode
from repro.simnet.engine import Simulator, WakeupMux
from repro.simnet.links import Link
from repro.simnet.loss import LossModel
from repro.simnet.node import SimNode
from repro.simnet.rng import RngStreams

__all__ = [
    "Host",
    "Site",
    "Network",
    "wire_size",
    "SAME_SITE_HOPS",
    "CROSS_SITE_HOPS",
]

SAME_SITE_HOPS = 1
CROSS_SITE_HOPS = 4

_UNCROSSED = object()  # a link the current transmission has not crossed yet


def _onward(at: float | None, size: int, first: Link, second: Link) -> float | None:
    """Exit time past two links in a row, entered at ``at``; None past a drop."""
    if at is not None:
        at = first.transit(size, at)
    if at is not None:
        at = second.transit(size, at)
    return at

_SIZE_CACHE: dict[int, int] = {}


def wire_size(packet: Packet) -> int:
    """Encoded size of ``packet`` in bytes (cached per type + payload len).

    Exact for fixed-size messages; for payload-bearing ones the size is
    header + payload, so the cache key includes the payload length.
    """
    payload = getattr(packet, "payload", b"")
    key = (int(packet.TYPE) << 32) | len(payload)
    size = _SIZE_CACHE.get(key)
    if size is None:
        size = len(encode(packet))
        _SIZE_CACHE[key] = size
    return size


class Endpoint(Protocol):
    """What the network delivers packets to (see :mod:`repro.simnet.node`)."""

    def receive(self, packet: Packet, src: str, now: float) -> None: ...


class PacketChaosHook(Protocol):
    """Duck type of :class:`repro.chaos.PacketChaos` as the network sees it."""

    def arrivals(self, packet: Packet, src: str, dst: str, at: float) -> list[float]: ...


class Host:
    """A simulated host: a name, a site, and an attached endpoint.

    ``represents`` is the modeled population multiplicity: an aggregate
    host (:mod:`repro.scale`) stands in for that many real receivers,
    while ordinary hosts represent exactly themselves.  The network's
    routing treats every host identically — multiplicity only affects
    population accounting (:meth:`Network.modeled_stats`).

    Every attribute is assigned in ``__init__``, in one order, so all
    hosts share one key table.  The network's fan-out segments hold each
    host's ``endpoint`` and whether it has an ``inbound_loss``, so both
    are set through :meth:`attach` and the property, which have the
    segments rebuilt.  A host keeps no traffic counters: the network's
    ``stats`` and packet counts (:class:`~repro.simnet.trace.PacketTrace`)
    report both, and its ``observer`` sees each host.
    """

    def __init__(
        self,
        name: str,
        site: "Site",
        inbound_loss: LossModel | None = None,
        represents: int = 1,
    ) -> None:
        self.name = name
        self.site = site
        self.endpoint: Endpoint | None = None
        self.represents = represents
        self._inbound_loss = inbound_loss
        self._network: "Network | None" = None  # set by Network.add_host

    @property
    def inbound_loss(self) -> LossModel | None:
        return self._inbound_loss

    @inbound_loss.setter
    def inbound_loss(self, loss: LossModel | None) -> None:
        # The network's fan-out segments record which of them hold a
        # lossy host: whoever assigns a model mid-run (every lossy
        # scenario does, after warm-up) must be heard by the next send.
        self._inbound_loss = loss
        if self._network is not None:
            self._network._segments.clear()

    def attach(self, endpoint: Endpoint) -> None:
        # The segments carry the endpoints too (a batch in flight keeps
        # the ones its hosts had when it was sent).
        self.endpoint = endpoint
        if self._network is not None:
            self._network._segments.clear()

    def __repr__(self) -> str:
        return f"Host({self.name!r} @ {self.site.name})"


@dataclass
class Site:
    """A topologically localized part of the network (LAN + tail circuit)."""

    name: str
    lan: Link
    tail_up: Link
    tail_down: Link
    hosts: list[Host] = field(default_factory=list)


class _Segment(NamedTuple):
    """A maximal run of *consecutive* sorted group members behind one site.

    Everything behind one tree edge shares one outcome, so the fan-out
    decides per segment, not per member.  Runs, not a per-site grouping:
    member order is sorted host names, two sites' names may interleave
    (``a1@A, b1@B, a2@A``), and loss draws, ``drop`` observer calls,
    first link crossings and co-timed deliveries all go in member order.
    """

    site: Site
    hosts: list[Host]
    endpoints: list  # each host's endpoint, in the same order
    lossy: bool  # some host here has an inbound-loss model


class Network:
    """The simulated internetwork: sites, hosts, groups, and routing."""

    def __init__(
        self,
        sim: Simulator,
        streams: RngStreams | None = None,
        backbone_latency: float = 0.005,
    ) -> None:
        self.sim = sim
        self.streams = streams or RngStreams(seed=0)
        self.backbone = Link("backbone", latency=backbone_latency)
        self._sites: dict[str, Site] = {}
        self._hosts: dict[str, Host] = {}
        self._groups: dict[str, set[str]] = {}
        # group -> (segments in member order, {site name: its segments})
        # for the batched fan-out, one entry per group whoever sends and
        # at whatever TTL (see _group_segments).  Dropped when the
        # group's membership changes (join/leave), and cleared when a
        # host appears (add_host), is attached or has its inbound_loss
        # assigned.
        self._segments: dict[str, tuple[list[_Segment], dict[str, list[_Segment]]]] = {}
        # One wakeup event per distinct node deadline, shared by every
        # node armed for it (SimNode arms through it).
        self.wakeup_mux = WakeupMux(sim)
        # The packet counts (PacketTrace is the view): (kind, ptype,
        # cross_site) -> [count, simnet.packets mirror if the registry
        # records], one update per batch or drop and scope (_count).
        self._packet_cells: dict[tuple, list] = {}
        self._registry = obs.registry()
        # An optional per-host tap, fn(kind, packet, src, hosts, now) with
        # kind in {"rx", "drop"}: called once per delivered co-timed
        # batch, before any host in it receives, and once per drop.
        # ``hosts`` are the destination Hosts in member order — one for
        # unicast and chaos arrivals, a segment's for a shared drop.
        # None on a plain deployment (HierarchyRuntime and tests set it).
        self.observer: Callable[[str, Packet, str, Sequence[Host], float], None] | None = None
        # Optional packet mangler (repro.chaos.PacketChaos): given one
        # about-to-be-scheduled delivery, returns the arrival times to
        # schedule instead — [] drops (corruption), [at, at+d] duplicates,
        # [at+d] reorders.  None = no mangling, zero cost.
        self.chaos: "PacketChaosHook | None" = None
        self.stats = {"unicast_sent": 0, "multicast_sent": 0, "delivered": 0, "dropped": 0}

    # -- construction ----------------------------------------------------

    def add_site(
        self,
        name: str,
        lan_latency: float = 0.0005,
        tail_latency: float = 0.02,
        tail_bandwidth: float = 0.0,
        tail_queue: int = 0,
        tail_loss_up: LossModel | None = None,
        tail_loss_down: LossModel | None = None,
        lan_loss: LossModel | None = None,
    ) -> Site:
        """Create a site hanging off the backbone via its tail circuit."""
        if name in self._sites:
            raise ValueError(f"site {name!r} already exists")
        tail = {"latency": tail_latency, "bandwidth": tail_bandwidth, "queue_limit": tail_queue}
        site = Site(
            name=name,
            lan=Link(f"{name}.lan", latency=lan_latency, loss=lan_loss),
            tail_up=Link(f"{name}.tail.up", loss=tail_loss_up, **tail),
            tail_down=Link(f"{name}.tail.down", loss=tail_loss_down, **tail),
        )
        self._sites[name] = site
        return site

    def add_host(
        self,
        name: str,
        site: Site,
        inbound_loss: LossModel | None = None,
        represents: int = 1,
    ) -> Host:
        """Create a host on ``site``'s LAN.

        ``represents`` > 1 marks an aggregate host standing in for that
        many modeled receivers (see :class:`Host`).
        """
        if name in self._hosts:
            raise ValueError(f"host {name!r} already exists")
        if represents < 1:
            raise ValueError(f"represents must be >= 1, got {represents}")
        host = Host(name, site, inbound_loss, represents)
        host._network = self
        site.hosts.append(host)
        self._hosts[name] = host
        # A host may be created under a name that already joined a group
        # (join() does not validate existence) — segments built while it
        # was missing must be rebuilt.
        self._segments.clear()
        return host

    # -- lookup ----------------------------------------------------------

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def site(self, name: str) -> Site:
        return self._sites[name]

    @property
    def sites(self) -> list[Site]:
        return list(self._sites.values())

    @property
    def hosts(self) -> list[Host]:
        return list(self._hosts.values())

    def modeled_stats(self) -> dict:
        """Population accounting with host multiplicity applied.

        ``hosts`` counts simulated nodes; ``modeled_population`` counts
        the receivers they stand for (aggregate hosts contribute their
        ``represents``).  ``per_site`` maps site name to its modeled
        population — the denominator scale experiments report
        receivers-per-second against.
        """
        per_site: dict[str, int] = {}
        total = 0
        for host in self._hosts.values():
            per_site[host.site.name] = per_site.get(host.site.name, 0) + host.represents
            total += host.represents
        return {
            "hosts": len(self._hosts),
            "modeled_population": total,
            "per_site": per_site,
        }

    # -- group membership ----------------------------------------------------

    def join(self, group: str, host_name: str) -> None:
        self._groups.setdefault(group, set()).add(host_name)
        self._segments.pop(group, None)

    def leave(self, group: str, host_name: str) -> None:
        members = self._groups.get(group)
        if members is not None:
            members.discard(host_name)
            self._segments.pop(group, None)

    def _sorted_members(self, group: str) -> list[str]:
        """Sorted: RNG consumption order must not depend on set-hash randomization."""
        return sorted(self._groups.get(group, ()))

    def _group_segments(self, group: str) -> tuple[list[_Segment], dict[str, list[_Segment]]]:
        """``group``'s existing members cut into segments, in member order
        and by site name."""
        runs: list[tuple[Site, list[Host]]] = []
        for host in filter(None, map(self._hosts.get, self._sorted_members(group))):
            if runs and runs[-1][0] is host.site:
                runs[-1][1].append(host)
            else:
                runs.append((host.site, [host]))
        segments = [
            _Segment(
                site,
                hosts,
                [host.endpoint for host in hosts],
                any(host._inbound_loss is not None for host in hosts),
            )
            for site, hosts in runs
        ]
        by_site: dict[str, list[_Segment]] = {}
        for segment in segments:
            by_site.setdefault(segment.site.name, []).append(segment)
        return segments, by_site

    def members(self, group: str) -> frozenset[str]:
        return frozenset(self._groups.get(group, frozenset()))

    # -- routing ----------------------------------------------------------

    def path(self, src: Host, dst: Host) -> tuple[list[Link], int]:
        """The ordered link list and hop count from ``src`` to ``dst``."""
        if src.site is dst.site:
            return [src.site.lan], SAME_SITE_HOPS
        return (
            [src.site.lan, src.site.tail_up, self.backbone, dst.site.tail_down, dst.site.lan],
            CROSS_SITE_HOPS,
        )

    def send_unicast(self, src_name: str, dst_name: str, packet: Packet) -> None:
        """Inject a point-to-point packet at the current sim time."""
        src = self._hosts[src_name]
        dst = self._hosts.get(dst_name)
        self.stats["unicast_sent"] += 1
        if dst is None:
            self.stats["dropped"] += 1  # destination does not exist (failed host)
            return
        now = self.sim.now
        links, hops = self.path(src, dst)
        cross = hops == CROSS_SITE_HOPS
        at = now
        size = wire_size(packet)
        for link in links:
            exit_time = link.transit(size, at)
            if exit_time is None:
                self._drop(packet, src_name, (dst,), now, cross)
                return
            at = exit_time
        self._deliver(dst, packet, src_name, at, cross)

    def send_multicast(self, src_name: str, group: str, packet: Packet, ttl: int | None = None) -> None:
        """Inject a multicast: one copy per tree link, shared fate.

        Each link is crossed once per transmission, in the order a walk
        of the members first needs it: the source's LAN, then its tail-up
        and the backbone at the first remote segment, then each remote
        site's tail-down and LAN, the outcome kept per site for a site
        met again in a later run.  There is **one delivery event per
        distinct arrival time**, fanning out to the co-timed receivers
        inside the callback — for the paper's 50×20 deployment that is
        two events per transmission instead of ~1000.  Drop accounting,
        per-member inbound-loss draws, and the delivery order are
        bit-identical to a per-receiver loop (the oracle in
        tests/_oracles/fanout.py), and so are the observer's calls once
        each is flattened to one per host.
        """
        src = self._hosts[src_name]
        self.stats["multicast_sent"] += 1
        now = self.sim.now
        size = wire_size(packet)
        entry = self._segments.get(group)
        if entry is None:
            entry = self._segments[group] = self._group_segments(group)
        src_site = src.site
        if ttl is None or ttl >= CROSS_SITE_HOPS:
            segments = entry[0]
        elif ttl >= SAME_SITE_HOPS:
            # Scoped below cross-site reach: only the source's own site.
            segments = entry[1].get(src_site.name, ())
        else:
            return  # reaches nobody

        # One arrival time (None = shared drop on the path) for everyone
        # behind the same tree edges: the source LAN's exit, the
        # backbone's, and each remote site's, each crossed when first
        # needed and never past a drop.
        lan_at = wan_at = _UNCROSSED
        site_at: dict[str, float | None] = {}
        # arrival time -> [hosts, endpoints, how many of them are cross-site]
        batches: dict[float, list] = {}
        chaos = self.chaos
        for site, hosts, endpoints, lossy in segments:
            cross = site is not src_site
            if not cross and src in hosts:
                # The source hears nothing of its own (every logger that
                # multicasts a repair is a member), and crosses no link
                # for a run that holds nobody else.
                i = hosts.index(src)
                hosts, endpoints = hosts[:i] + hosts[i + 1 :], endpoints[:i] + endpoints[i + 1 :]
                if not hosts:
                    continue
            if lan_at is _UNCROSSED:
                lan_at = src_site.lan.transit(size, now)
            at = lan_at
            if cross:
                at = site_at.get(site.name, _UNCROSSED)
                if at is _UNCROSSED:
                    if wan_at is _UNCROSSED:
                        wan_at = _onward(lan_at, size, src_site.tail_up, self.backbone)
                    at = site_at[site.name] = _onward(wan_at, size, site.tail_down, site.lan)
            if at is None:
                self._drop(packet, src_name, hosts, now, len(hosts) if cross else 0)
                continue
            batch = batches.get(at)
            if batch is None:
                batch = batches[at] = [[], [], 0]
            if chaos is None and not lossy:
                batch[0].extend(hosts)
                batch[1].extend(endpoints)
                if cross:
                    batch[2] += len(hosts)
                continue
            held = len(batch[0])
            for dst, endpoint in zip(hosts, endpoints):
                loss = dst._inbound_loss
                if loss is not None and loss.drops(at):
                    self._drop(packet, src_name, (dst,), at, cross)
                elif chaos is not None:
                    self._deliver_chaos(dst, packet, src_name, at, cross)
                else:
                    batch[0].append(dst)
                    batch[1].append(endpoint)
            if cross:
                batch[2] += len(batch[0]) - held
        schedule = self.sim.schedule
        for at, (co_timed, endpoints, n_cross) in batches.items():
            if co_timed:  # everyone due at ``at`` may have dropped
                schedule(at, self._arrive_batch, co_timed, endpoints, n_cross, packet, src_name)

    # -- delivery ----------------------------------------------------------

    def _deliver(self, dst: Host, packet: Packet, src_name: str, at: float, cross: bool) -> None:
        loss = dst._inbound_loss
        if loss is not None and loss.drops(at):
            self._drop(packet, src_name, (dst,), at, cross)
            return
        if self.chaos is not None:
            self._deliver_chaos(dst, packet, src_name, at, cross)
            return
        self.sim.schedule(at, self._arrive, dst, packet, src_name, cross)

    def _deliver_chaos(self, dst: Host, packet: Packet, src_name: str, at: float, cross: bool) -> None:
        """Schedule a delivery through the chaos mangler (slow path)."""
        assert self.chaos is not None
        times = self.chaos.arrivals(packet, src_name, dst.name, at)
        if not times:
            self._drop(packet, src_name, (dst,), at, cross)
            return
        for t in times:
            self.sim.schedule(t, self._arrive, dst, packet, src_name, cross)

    def _arrive(self, dst: Host, packet: Packet, src_name: str, cross: bool) -> None:
        """One host's arrival (unicast, chaos): through
        ``endpoint.receive``, the per-host entry point."""
        now = self.sim.now
        self.stats["delivered"] += 1
        self._count("rx", packet, 1, cross)
        if self.observer is not None:
            self.observer("rx", packet, src_name, (dst,), now)
        if dst.endpoint is not None:
            dst.endpoint.receive(packet, src_name, now)

    def _arrive_batch(
        self, co_timed: list[Host], endpoints: list, n_cross: int, packet: Packet, src_name: str
    ) -> None:
        """Deliver one multicast transmission to its co-timed receivers.

        Iteration order is membership order, matching the tie-breaker
        order a per-receiver loop produces for simultaneous deliveries.
        The delivered count, the packet counts (``n_cross`` of the batch
        are cross-site) and the observer are charged once for the batch,
        before anyone receives, then :meth:`SimNode.receive_batch` walks
        the endpoints the fan-out collected — the one pass over the batch.
        """
        now = self.sim.now
        self.stats["delivered"] += len(endpoints)
        self._count("rx", packet, len(endpoints), n_cross)
        if self.observer is not None:
            self.observer("rx", packet, src_name, co_timed, now)
        SimNode.receive_batch(endpoints, packet, src_name, now)

    def _drop(self, packet: Packet, src_name: str, hosts: Sequence[Host], now: float, n_cross: int) -> None:
        self.stats["dropped"] += len(hosts)
        self._count("drop", packet, len(hosts), n_cross)
        if self.observer is not None:
            self.observer("drop", packet, src_name, hosts, now)

    def _count(self, kind: str, packet: Packet, n: int, n_cross: int) -> None:
        """Add ``n`` packets of ``kind``, ``n_cross`` of them cross-site,
        to the packet counts."""
        # PacketType is an IntEnum: as a dict key it hashes/compares
        # like its int value, so skip the per-packet int() conversion.
        ptype = packet.TYPE
        cells = self._packet_cells
        for cross, k in ((False, n - n_cross), (True, n_cross)):
            if not k:
                continue
            key = (kind, ptype, cross)
            cell = cells.get(key)
            if cell is None:
                reg = self._registry
                scope = "cross" if cross else "local"
                mirror = reg.counter("simnet.packets", kind=kind, ptype=PacketType(ptype).name, scope=scope)
                cell = cells[key] = [0, mirror if reg.enabled else None]
            cell[0] += k
            if cell[1] is not None:
                cell[1].inc(k)
