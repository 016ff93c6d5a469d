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
from typing import Callable, NamedTuple, Protocol

from repro.core.packets import Packet, encode
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
    hosts share one key table: ``_arrive_batch`` reads ``rx_packets`` and
    ``endpoint`` once per (receiver, packet).
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
        self.rx_packets = 0
        self.rx_dropped = 0
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
        self.endpoint = endpoint

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
        self.backbone = Link(
            "backbone", latency=backbone_latency, rng=self.streams.stream("link:backbone")
        )
        self._sites: dict[str, Site] = {}
        self._hosts: dict[str, Host] = {}
        self._groups: dict[str, set[str]] = {}
        # group -> (segments in member order, {site name: its segments})
        # for the batched fan-out, one entry per group whoever sends and
        # at whatever TTL (see _group_segments).  Dropped when the
        # group's membership changes (join/leave), and cleared when a
        # host appears (add_host) or a host's inbound_loss is assigned.
        self._segments: dict[str, tuple[list[_Segment], dict[str, list[_Segment]]]] = {}
        # Fast path: one delivery event per distinct arrival time instead
        # of one per receiver, and one wakeup event per distinct node
        # deadline (the WakeupMux).  Off = the pre-batching per-receiver
        # loop and per-node wakeups, which only tests select (the oracle
        # of tests/simnet/test_loss_batch.py); both produce identical
        # delivery and RNG-draw orderings.
        self.wakeup_mux: WakeupMux | None = None
        self.batch_delivery = True
        # Optional observer called for every delivered/dropped packet:
        # fn(kind, packet, src, dst, now) with kind in {"rx", "drop"}.
        # (A property: assigning it also clears `batch_observer`.)
        self._observer: Callable[[str, Packet, str, str, float], None] | None = None
        # Optional amortized counterpart, fn(packet, src, hosts, now),
        # called once per co-timed delivery batch *instead of* per-host
        # observer calls.  Only the observer's owner may install it (see
        # the observer setter): anything that replaces or wraps
        # `observer` — the chaos oracle chains it — silently falls back
        # to the exact per-packet path.
        self.batch_observer: Callable[[Packet, str, list[Host], float], None] | None = None
        # Optional packet mangler (repro.chaos.PacketChaos): given one
        # about-to-be-scheduled delivery, returns the arrival times to
        # schedule instead — [] drops (corruption), [at, at+d] duplicates,
        # [at+d] reorders.  None = no mangling, zero cost.
        self.chaos: "PacketChaosHook | None" = None
        self.stats = {"unicast_sent": 0, "multicast_sent": 0, "delivered": 0, "dropped": 0}

    @property
    def batch_delivery(self) -> bool:
        return self._batch_delivery

    @batch_delivery.setter
    def batch_delivery(self, on: bool) -> None:
        self._batch_delivery = on
        # The wakeup mux is part of the same fast path; with batching
        # off there is one simulator event per node wakeup.
        # Buckets already scheduled by an old mux self-heal: their fire
        # loop skips nodes whose armed deadline no longer matches, and a
        # spurious poll is legal under the machine contract.
        self.wakeup_mux = WakeupMux(self.sim) if on else None

    @property
    def observer(self) -> "Callable[[str, Packet, str, str, float], None] | None":
        return self._observer

    @observer.setter
    def observer(self, fn: "Callable[[str, Packet, str, str, float], None] | None") -> None:
        # Replacing the per-packet observer invalidates any batched
        # observer fast path — it belonged to the previous observer, and
        # leaving it installed would let deliveries bypass the new one.
        self._observer = fn
        self.batch_observer = None

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
        site = Site(
            name=name,
            lan=Link(
                f"{name}.lan",
                latency=lan_latency,
                loss=lan_loss,
                rng=self.streams.stream(f"link:{name}.lan"),
            ),
            tail_up=Link(
                f"{name}.tail.up",
                latency=tail_latency,
                bandwidth=tail_bandwidth,
                queue_limit=tail_queue,
                loss=tail_loss_up,
                rng=self.streams.stream(f"link:{name}.tail.up"),
            ),
            tail_down=Link(
                f"{name}.tail.down",
                latency=tail_latency,
                bandwidth=tail_bandwidth,
                queue_limit=tail_queue,
                loss=tail_loss_down,
                rng=self.streams.stream(f"link:{name}.tail.down"),
            ),
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
            _Segment(site, hosts, any(host._inbound_loss is not None for host in hosts))
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
        links, _ = self.path(src, dst)
        at = now
        size = wire_size(packet)
        for link in links:
            exit_time = link.transit(size, at)
            if exit_time is None:
                self._drop(packet, src_name, dst_name, now)
                return
            at = exit_time
        self._deliver(dst, packet, src_name, at)

    def send_multicast(self, src_name: str, group: str, packet: Packet, ttl: int | None = None) -> None:
        """Inject a multicast: one copy per tree link, shared fate.

        The fast path (``batch_delivery``) computes each destination
        site's arrival time once and schedules **one delivery event per
        distinct arrival time**, fanning out to the co-timed receivers
        inside the callback — for the paper's 50×20 deployment that is
        ~50 events per transmission instead of ~1000.  Drop accounting,
        per-member inbound-loss draws, and the delivery order are
        bit-identical to the per-receiver reference loop below.
        """
        src = self._hosts[src_name]
        self.stats["multicast_sent"] += 1
        now = self.sim.now
        size = wire_size(packet)
        # Per-transmission cache of each link's outcome so the loss model
        # and the bandwidth are charged exactly once per tree edge.
        outcomes: dict[int, float | None] = {}

        def cross(link: Link, at: float) -> float | None:
            key = id(link)
            if key not in outcomes:
                outcomes[key] = link.transit(size, at)
            return outcomes[key]

        if not self.batch_delivery:
            members = self._sorted_members(group)
            self._send_multicast_reference(src, src_name, members, packet, ttl, now, cross)
            return

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

        batches: dict[float, list[Host]] = {}
        chaos = self.chaos
        for site, hosts, lossy in segments:
            if site is src_site:
                # The source hears nothing of its own (every logger that
                # multicasts a repair is a member), and crosses no link
                # for a run that holds nobody else.
                hosts = [dst for dst in hosts if dst is not src]
                if not hosts:
                    continue
            # One arrival time (None = shared drop on the path) for everyone
            # behind the same tree edges; a site met again in a later run
            # gets the same one, each link's outcome being cached.
            at: float | None = now
            for link in self.path(src, hosts[0])[0]:
                at = cross(link, at)
                if at is None:
                    break
            if at is None:
                for dst in hosts:
                    self._drop(packet, src_name, dst.name, now)
                continue
            bucket = batches.get(at)
            if bucket is None:
                bucket = batches[at] = []
            if chaos is None and not lossy:
                bucket.extend(hosts)
                continue
            for dst in hosts:
                loss = dst._inbound_loss
                if loss is not None and loss.drops(at):
                    self._drop(packet, src_name, dst.name, at)
                elif chaos is not None:
                    self._deliver_chaos(dst, packet, src_name, at)
                else:
                    bucket.append(dst)
        schedule = self.sim.schedule
        for at, co_timed in batches.items():
            if co_timed:  # everyone due at ``at`` may have dropped
                schedule(at, self._arrive_batch, co_timed, packet, src_name)

    def _send_multicast_reference(
        self,
        src: Host,
        src_name: str,
        members: list[str],
        packet: Packet,
        ttl: int | None,
        now: float,
        cross,
    ) -> None:
        """Pre-batching reference loop: one delivery event per receiver."""
        for member_name in members:
            if member_name == src_name:
                continue
            dst = self._hosts.get(member_name)
            if dst is None:
                continue
            links, hops = self.path(src, dst)
            if ttl is not None and hops > ttl:
                continue  # scoped out, not an error
            at: float | None = now
            for link in links:
                at = cross(link, at)
                if at is None:
                    break
            if at is None:
                self._drop(packet, src_name, member_name, now)
            else:
                self._deliver(dst, packet, src_name, at)

    # -- delivery ----------------------------------------------------------

    def _deliver(self, dst: Host, packet: Packet, src_name: str, at: float) -> None:
        loss = dst._inbound_loss
        if loss is not None and loss.drops(at):
            self._drop(packet, src_name, dst.name, at)
            return
        if self.chaos is not None:
            self._deliver_chaos(dst, packet, src_name, at)
            return
        self.sim.schedule(at, self._arrive, dst, packet, src_name)

    def _deliver_chaos(self, dst: Host, packet: Packet, src_name: str, at: float) -> None:
        """Schedule a delivery through the chaos mangler (slow path)."""
        assert self.chaos is not None
        times = self.chaos.arrivals(packet, src_name, dst.name, at)
        if not times:
            self._drop(packet, src_name, dst.name, at)
            return
        for t in times:
            self.sim.schedule(t, self._arrive, dst, packet, src_name)

    def _arrive(self, dst: Host, packet: Packet, src_name: str) -> None:
        dst.rx_packets += 1
        self.stats["delivered"] += 1
        if self._observer is not None:
            self._observer("rx", packet, src_name, dst.name, self.sim.now)
        if dst.endpoint is not None:
            dst.endpoint.receive(packet, src_name, self.sim.now)

    def _arrive_batch(self, co_timed: list[Host], packet: Packet, src_name: str) -> None:
        """Deliver one multicast transmission to its co-timed receivers.

        Iteration order is membership order, matching the tie-breaker
        order the per-receiver reference path produces for simultaneous
        deliveries.  The delivered count, the hosts' ``rx_packets`` and
        (when its owner installed one) the observer are charged once per
        batch, then :meth:`SimNode.receive_batch` walks the endpoints.
        """
        now = self.sim.now
        self.stats["delivered"] += len(co_timed)
        batch_obs, observer = self.batch_observer, self._observer
        if batch_obs is None and observer is not None:
            # A foreign per-packet observer (the chaos oracle and the
            # hierarchy runtime chain one): observe -> receive, per host.
            for dst in co_timed:
                dst.rx_packets += 1
                observer("rx", packet, src_name, dst.name, now)
                SimNode.receive_batch((dst.endpoint,), packet, src_name, now)
            return
        if batch_obs is not None:
            batch_obs(packet, src_name, co_timed, now)
        for dst in co_timed:
            dst.rx_packets += 1
        SimNode.receive_batch([dst.endpoint for dst in co_timed], packet, src_name, now)

    def _drop(self, packet: Packet, src_name: str, dst_name: str, now: float) -> None:
        self.stats["dropped"] += 1
        host = self._hosts.get(dst_name)
        if host is not None:
            host.rx_dropped += 1
        if self._observer is not None:
            self._observer("drop", packet, src_name, dst_name, now)
