"""Rotating the site-logger role among local hosts (§2.2.1).

"An alternative implementation could provide distributed logging at
each site by rotating the role of log server among the local hosts in
order to distribute the load, similar to the Chang and Maxemchuk
algorithm, except that the multicast traffic originates from a source
outside the virtual ring."

Every participating host logs the group's traffic (they are receivers
anyway), but only the host *on duty* serves retransmission requests and
participates in statistical acking.  Duty passes around the site's
ring on a fixed period, deterministically from the (sorted) member set
and the clock — no coordination traffic, the Chang-Maxemchuk token
without the token.

:class:`RotationSchedule` computes who is on duty;
:class:`RotatingLogServer` wraps a :class:`~repro.core.logger.LogServer`
and gates its *serving* behaviour (NACK service, discovery replies,
acker volunteering) by duty, while logging unconditionally.  Receivers
direct their NACKs at the on-duty host via the same schedule.
"""

from __future__ import annotations

from repro.core.actions import Action, Address
from repro.core.logger import LogServer
from repro.core.machine import ProtocolMachine
from repro.core.packets import (
    AckerSelectPacket,
    DiscoveryQueryPacket,
    NackPacket,
    Packet,
    ProbePacket,
)

__all__ = ["RotationSchedule", "RotatingLogServer"]


class RotationSchedule:
    """Deterministic round-robin duty assignment for one site."""

    def __init__(self, members: tuple[str, ...], period: float = 10.0, epoch: float = 0.0) -> None:
        if not members:
            raise ValueError("rotation needs at least one member")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        # Sorted order makes the schedule identical on every host.
        self._members = tuple(sorted(set(members)))
        self._period = period
        self._epoch = epoch

    @property
    def members(self) -> tuple[str, ...]:
        return self._members

    def on_duty(self, now: float) -> str:
        """The member serving the logger role at time ``now``."""
        slot = int((now - self._epoch) // self._period)
        return self._members[slot % len(self._members)]

    def next_handoff(self, now: float) -> float:
        """When duty next changes hands."""
        slot = int((now - self._epoch) // self._period)
        return self._epoch + (slot + 1) * self._period

    def duty_spans(self, start: float, end: float) -> list[tuple[str, float, float]]:
        """(member, from, to) duty intervals covering [start, end)."""
        spans: list[tuple[str, float, float]] = []
        t = start
        while t < end:
            handoff = self.next_handoff(t)
            spans.append((self.on_duty(t), t, min(handoff, end)))
            t = handoff
        return spans


class RotatingLogServer(ProtocolMachine):
    """A LogServer that serves only while its host is on duty.

    ``host_name`` must be this host's name in the schedule's member set.
    Logging (DATA/RETRANS intake, upstream self-recovery) runs at all
    times so every member's log is complete when its turn comes; only
    the *service* face — NACKs, discovery, acker/probe volunteering —
    is duty-gated.
    """

    def __init__(self, inner: LogServer, host_name: str, schedule: RotationSchedule) -> None:
        super().__init__()
        if host_name not in schedule.members:
            raise ValueError(f"{host_name!r} is not in the rotation {schedule.members}")
        self._inner = inner
        self._host = host_name
        self._schedule = schedule
        self.stats = {"served_on_duty": 0, "deferred_off_duty": 0}

    @property
    def inner(self) -> LogServer:
        return self._inner

    def on_duty(self, now: float) -> bool:
        return self._schedule.on_duty(now) == self._host

    # -- machine contract ----------------------------------------------------

    def start(self, now: float) -> list[Action]:
        return self._inner.start(now)

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        duty_gated = isinstance(
            packet, (NackPacket, DiscoveryQueryPacket, AckerSelectPacket, ProbePacket)
        )
        if duty_gated and not self.on_duty(now):
            self.stats["deferred_off_duty"] += 1
            return []
        if duty_gated:
            self.stats["served_on_duty"] += 1
        return self._inner.handle(packet, src, now)

    def poll(self, now: float) -> list[Action]:
        return self._inner.poll(now)

    def next_wakeup(self) -> float | None:
        return self._inner.next_wakeup()
