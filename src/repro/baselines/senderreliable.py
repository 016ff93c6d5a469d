"""Positive-acknowledgement (sender-reliable) multicast — the §1/§5 foil.

"A positive acknowledgement scheme used with multicast can lead to an
acknowledgment implosion at the source and significant network load.
Second, positive acknowledgement requires that the source know the
identity of the receivers..."

:class:`PosAckSender` implements exactly that conventional design: it is
configured with the full receiver list, every receiver ACKs every data
packet, the sender retransmits (unicast) to any receiver whose ACK is
late, and buffered data is released only when *all* receivers have
acknowledged it.  The benchmark harness uses it to show per-packet ACK
load growing linearly with group size while LBRM's stays at ``k``
designated ackers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.core.actions import Action, Address, Deliver, JoinGroup, SendMulticast, SendUnicast
from repro.core.machine import ProtocolMachine
from repro.core.packets import Packet, PacketType, register_packet

__all__ = ["PosAckDataPacket", "PosAckPacket", "PosAckSender", "PosAckReceiver"]


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class PosAckDataPacket(Packet):
    """Data under the positive-acknowledgement regime."""

    seq: int
    payload: bytes

    TYPE: ClassVar[PacketType] = PacketType.POSACK_DATA
    WIRE: ClassVar[tuple] = (("seq", "u64"), ("payload", "bytes"))


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class PosAckPacket(Packet):
    """Per-receiver cumulative acknowledgement."""

    cum_seq: int

    TYPE: ClassVar[PacketType] = PacketType.POSACK_ACK
    WIRE: ClassVar[tuple] = (("cum_seq", "u64"),)


class PosAckSender(ProtocolMachine):
    """Conventional sender-reliable multicast source.

    Must know every receiver (``receivers``); keeps per-receiver
    cumulative ACK state; retransmits unicast after ``retry`` seconds of
    silence, up to ``max_retries`` per receiver per packet, after which
    the receiver is declared failed and dropped from the ACK quorum.
    """

    def __init__(
        self,
        group: str,
        receivers: tuple[Address, ...],
        retry: float = 0.5,
        max_retries: int = 5,
    ) -> None:
        super().__init__()
        if retry <= 0:
            raise ValueError(f"retry must be positive, got {retry}")
        self._group = group
        self._receivers: set[Address] = set(receivers)
        self._retry = retry
        self._max_retries = max_retries
        self._seq = 0
        self._buffer: dict[int, bytes] = {}
        self._acked: dict[Address, int] = {r: 0 for r in receivers}
        self._retries: dict[tuple[Address, int], int] = {}
        self.stats = {
            "data_sent": 0,
            "acks_received": 0,
            "retransmits": 0,
            "receivers_failed": 0,
        }

    @property
    def unreleased(self) -> int:
        """Packets still buffered awaiting the full ACK quorum."""
        return len(self._buffer)

    @property
    def released_up_to(self) -> int:
        if not self._receivers:
            return self._seq
        return min(self._acked[r] for r in self._receivers)

    def start(self, now: float) -> list[Action]:
        return [JoinGroup(group=self._group)]

    def send(self, payload: bytes, now: float) -> list[Action]:
        self._seq += 1
        self._buffer[self._seq] = payload
        self.stats["data_sent"] += 1
        self.timers.set(("retry", self._seq), now + self._retry)
        packet = PosAckDataPacket(group=self._group, seq=self._seq, payload=payload)
        return [SendMulticast(group=self._group, packet=packet)]

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        if not isinstance(packet, PosAckPacket) or src not in self._receivers:
            return []
        self.stats["acks_received"] += 1
        if packet.cum_seq > self._acked.get(src, 0):
            self._acked[src] = packet.cum_seq
        self._release()
        return []

    def _release(self) -> None:
        floor = self.released_up_to
        for seq in [s for s in self._buffer if s <= floor]:
            del self._buffer[seq]
            self.timers.cancel(("retry", seq))

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            if key[0] != "retry":
                continue
            seq = key[1]
            payload = self._buffer.get(seq)
            if payload is None:
                continue
            packet = PosAckDataPacket(group=self._group, seq=seq, payload=payload)
            for receiver in list(self._receivers):
                if self._acked.get(receiver, 0) >= seq:
                    continue
                attempts = self._retries.get((receiver, seq), 0)
                if attempts >= self._max_retries:
                    # Conventional protocols must eventually declare the
                    # receiver dead or block forever (§5's criticism).
                    self._receivers.discard(receiver)
                    self.stats["receivers_failed"] += 1
                    continue
                self._retries[(receiver, seq)] = attempts + 1
                self.stats["retransmits"] += 1
                actions.append(SendUnicast(dest=receiver, packet=packet))
            self._release()
            if seq in self._buffer:
                self.timers.set(("retry", seq), now + self._retry)
        return actions


class PosAckReceiver(ProtocolMachine):
    """Receiver that positively acknowledges everything, in order.

    Delivery is *in-order* (the conventional-transport semantics §5
    contrasts with LBRM): a gap stalls delivery of later packets until
    the retransmission arrives — the head-of-line blocking the paper's
    real-time argument is about.
    """

    def __init__(self, group: str, sender: Address) -> None:
        super().__init__()
        self._group = group
        self._sender = sender
        self._cum = 0
        self._pending: dict[int, bytes] = {}
        self.stats = {"data_received": 0, "acks_sent": 0, "stalled": 0}

    def start(self, now: float) -> list[Action]:
        return [JoinGroup(group=self._group)]

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        if not isinstance(packet, PosAckDataPacket):
            return []
        self.stats["data_received"] += 1
        actions: list[Action] = []
        if packet.seq > self._cum and packet.seq not in self._pending:
            self._pending[packet.seq] = packet.payload
        # Deliver any now-contiguous prefix, in order.
        while self._cum + 1 in self._pending:
            self._cum += 1
            actions.append(Deliver(seq=self._cum, payload=self._pending.pop(self._cum), recovered=False))
        if self._pending:
            self.stats["stalled"] += len(self._pending)
        self.stats["acks_sent"] += 1
        actions.append(SendUnicast(dest=self._sender, packet=PosAckPacket(group=self._group, cum_seq=self._cum)))
        return actions

    def poll(self, now: float) -> list[Action]:
        return []
