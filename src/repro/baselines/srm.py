"""wb/SRM-style unorganized recovery — the paper's main comparator (§6).

"LBRM takes an organized approach to recovery, while wb is fundamentally
unorganized. ... a receiver requests lost packets from everyone in the
group, and anyone with the packet may respond."

This module implements the published wb/SRM recovery mechanism (Floyd,
Jacobson, Liu, McCanne & Zhang, SIGCOMM '95) to the level of detail the
LBRM paper's comparison relies on:

* every data packet is cached by every member (any member can repair);
* loss is detected from data gaps or from periodic, fixed-interval
  *session messages* announcing the source's highest sequence number —
  wb's equivalent of the fixed heartbeat (§6: "wb does not provide fast
  loss detection, but rather, it relies on periodic multicast session
  messages");
* a member wanting ``seq`` multicasts a REPAIR REQUEST to the whole
  group after a random delay drawn from ``[C1·d_S, (C1+C2)·d_S]``, where
  ``d_S`` is its estimated one-way delay to the source; seeing someone
  else's request for the same sequence suppresses its own (with
  exponential back-off of the re-request timer);
* a member holding ``seq`` answers with a multicast REPAIR after a
  random delay from ``[D1·d_R, (D1+D2)·d_R]`` (``d_R`` = delay to the
  requester); seeing another member's repair cancels its own.

With the paper's constants (C1 = C2 = D1 = D2 = 1) the last receiver to
recover does so in about 3×RTT to the source — the figure §6 quotes.

Simplification: SRM learns pairwise distances from timestamps in session
messages; here each member is constructed with its one-way source delay
and an optional per-peer delay function (the simulation knows the
topology).  This replaces the estimation machinery, not the recovery
algorithm, and is documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.core.actions import Action, Address, Deliver, JoinGroup, Notify, SendMulticast
from repro.core.events import LossDetected, RecoveryComplete
from repro.core.machine import ProtocolMachine
from repro.core.packets import DataPacket, Packet, PacketType, register_packet
from repro.core.sequence import SequenceTracker

__all__ = [
    "SrmSessionPacket",
    "SrmRequestPacket",
    "SrmRepairPacket",
    "SrmSender",
    "SrmMember",
]


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class SrmSessionPacket(Packet):
    """Periodic session message announcing the source's highest seq."""

    seq: int

    TYPE: ClassVar[PacketType] = PacketType.SRM_SESSION
    WIRE: ClassVar[tuple] = (("seq", "u64"),)


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class SrmRequestPacket(Packet):
    """Group-wide multicast repair request for one sequence number."""

    seq: int

    TYPE: ClassVar[PacketType] = PacketType.SRM_REQUEST
    WIRE: ClassVar[tuple] = (("seq", "u64"),)


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class SrmRepairPacket(Packet):
    """Group-wide multicast repair carrying the requested data."""

    seq: int
    payload: bytes

    TYPE: ClassVar[PacketType] = PacketType.SRM_REPAIR
    WIRE: ClassVar[tuple] = (("seq", "u64"), ("payload", "bytes"))


class SrmSender(ProtocolMachine):
    """The wb source: data plus fixed-interval session messages."""

    def __init__(self, group: str, session_interval: float = 0.25) -> None:
        super().__init__()
        if session_interval <= 0:
            raise ValueError(f"session_interval must be positive, got {session_interval}")
        self._group = group
        self._interval = session_interval
        self._seq = 0
        self.stats = {"data_sent": 0, "sessions_sent": 0}

    def start(self, now: float) -> list[Action]:
        self.timers.set(("session",), now + self._interval)
        return [JoinGroup(group=self._group)]

    def send(self, payload: bytes, now: float) -> list[Action]:
        self._seq += 1
        self.stats["data_sent"] += 1
        return [SendMulticast(group=self._group, packet=DataPacket(group=self._group, seq=self._seq, payload=payload))]

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        return []

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            if key[0] == "session":
                self.timers.set(("session",), now + self._interval)
                self.stats["sessions_sent"] += 1
                actions.append(
                    SendMulticast(group=self._group, packet=SrmSessionPacket(group=self._group, seq=self._seq))
                )
        return actions


@dataclass
class _SrmRecovery:
    seq: int
    detected_at: float
    backoff: int = 0  # exponential back-off exponent after suppression


class SrmMember(ProtocolMachine):
    """A wb group member: receiver, cache, and potential repairer."""

    def __init__(
        self,
        group: str,
        *,
        d_source: float,
        d_peer: Callable[[Address], float] | None = None,
        c1: float = 1.0,
        c2: float = 1.0,
        d1: float = 1.0,
        d2: float = 1.0,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__()
        if d_source <= 0:
            raise ValueError(f"d_source must be positive, got {d_source}")
        self._group = group
        self._d_source = d_source
        self._d_peer = d_peer or (lambda addr: d_source)
        self._c1, self._c2 = c1, c2
        self._d1, self._d2 = d1, d2
        # Deterministic default (str seeds hash stably): suppression
        # timer draws are reproducible without an explicit RNG.
        self._rng = rng or random.Random("repro.baselines.srm")
        self._tracker = SequenceTracker()
        self._cache: dict[int, bytes] = {}
        self._recovering: dict[int, _SrmRecovery] = {}
        # seq -> requester we owe a repair to (pending repair timer).
        self._repairing: dict[int, Address] = {}
        self.stats = {
            "data_received": 0,
            "requests_sent": 0,
            "requests_suppressed": 0,
            "repairs_sent": 0,
            "repairs_cancelled": 0,
            "recoveries": 0,
            "duplicate_repairs_seen": 0,
        }

    # -- introspection ----------------------------------------------------

    @property
    def missing(self) -> frozenset[int]:
        return self._tracker.missing

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        return [JoinGroup(group=self._group)]

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        if isinstance(packet, DataPacket):
            return self._on_data(packet.seq, packet.payload, now, recovered=False)
        if isinstance(packet, SrmRepairPacket):
            return self._on_repair(packet, now)
        if isinstance(packet, SrmSessionPacket):
            return self._on_session(packet, now)
        if isinstance(packet, SrmRequestPacket):
            return self._on_request(packet, src, now)
        return []

    # -- data & session ----------------------------------------------------

    def _on_data(self, seq: int, payload: bytes, now: float, recovered: bool) -> list[Action]:
        report = self._tracker.observe_data(seq)
        self.stats["data_received"] += 1
        actions: list[Action] = []
        if report.is_new:
            self._cache[seq] = payload
            actions.append(Deliver(seq=seq, payload=payload, recovered=recovered))
            recovery = self._recovering.pop(seq, None)
            self.timers.cancel(("request", seq))
            if recovery is not None:
                self.stats["recoveries"] += 1
                actions.append(Notify(RecoveryComplete(seq=seq, latency=now - recovery.detected_at)))
        actions.extend(self._schedule_requests(report.new_gaps, now))
        return actions

    def _on_session(self, packet: SrmSessionPacket, now: float) -> list[Action]:
        report = self._tracker.observe_heartbeat(packet.seq)
        return self._schedule_requests(report.new_gaps, now)

    # -- request path ----------------------------------------------------

    def _schedule_requests(self, gaps: tuple[int, ...], now: float) -> list[Action]:
        gaps = tuple(s for s in gaps if s not in self._recovering)
        if not gaps:
            return []
        for seq in gaps:
            self._recovering[seq] = _SrmRecovery(seq=seq, detected_at=now)
            self.timers.set(("request", seq), now + self._request_delay(0))
        return [Notify(LossDetected(seqs=gaps))]

    def _request_delay(self, backoff: int) -> float:
        base = self._rng.uniform(self._c1 * self._d_source, (self._c1 + self._c2) * self._d_source)
        return base * (2**backoff)

    def _on_request(self, packet: SrmRequestPacket, src: Address, now: float) -> list[Action]:
        seq = packet.seq
        recovery = self._recovering.get(seq)
        if recovery is not None:
            # Someone else asked first: suppress our own request and
            # back off exponentially in case the repair is also lost.
            self.stats["requests_suppressed"] += 1
            recovery.backoff = min(recovery.backoff + 1, 8)
            self.timers.set(("request", seq), now + self._request_delay(recovery.backoff))
            return []
        if seq in self._cache and seq not in self._repairing:
            self._repairing[seq] = src
            d = self._d_peer(src)
            delay = self._rng.uniform(self._d1 * d, (self._d1 + self._d2) * d)
            self.timers.set(("repair", seq), now + delay)
        return []

    def _on_repair(self, packet: SrmRepairPacket, now: float) -> list[Action]:
        # Seeing a repair cancels our own pending repair for that seq.
        if packet.seq in self._repairing:
            self._repairing.pop(packet.seq, None)
            self.timers.cancel(("repair", packet.seq))
            self.stats["repairs_cancelled"] += 1
        if self._tracker.has(packet.seq):
            self.stats["duplicate_repairs_seen"] += 1
            return []
        return self._on_data(packet.seq, packet.payload, now, recovered=True)

    # -- timers ----------------------------------------------------------

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            kind, seq = key
            if kind == "request":
                recovery = self._recovering.get(seq)
                if recovery is None:
                    continue
                self.stats["requests_sent"] += 1
                # Re-arm with back-off: the request (or its repair) may be lost.
                recovery.backoff = min(recovery.backoff + 1, 8)
                self.timers.set(("request", seq), now + self._request_delay(recovery.backoff))
                actions.append(
                    SendMulticast(group=self._group, packet=SrmRequestPacket(group=self._group, seq=seq))
                )
            elif kind == "repair":
                requester = self._repairing.pop(seq, None)
                payload = self._cache.get(seq)
                if requester is None or payload is None:
                    continue
                self.stats["repairs_sent"] += 1
                actions.append(
                    SendMulticast(
                        group=self._group,
                        packet=SrmRepairPacket(group=self._group, seq=seq, payload=payload),
                    )
                )
        return actions
