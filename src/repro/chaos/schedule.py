"""Declarative fault schedules.

A :class:`FaultSchedule` is a value: a seeded, serializable list of
:class:`Fault` records saying *what goes wrong when*.  Nothing here
touches a simulator — :class:`~repro.chaos.controller.ChaosController`
compiles a schedule onto a deployment.  Keeping the description inert
makes schedules printable in campaign reports, minimizable on failure,
and replayable from a reproducer seed.

Fault vocabulary
----------------

Node faults (``target`` = host name):

* ``crash`` / ``restart`` — detach the node's machines / re-attach them
  through each one's ``restart``, which keeps what it declares a crash
  keeps (a logger's log spools to disk, §2.2) and rebuilds the rest.
* ``pause`` / ``resume`` — alive but unresponsive; inbound traffic is
  lost and timers do not fire (a stop-the-world pause).
* ``skew`` — add a constant offset of ``amount`` seconds to the clock
  the node's machines observe, from ``at`` onward.

Site faults (``target`` = site name):

* ``partition`` — drop everything crossing the site's tail circuit, in
  both directions, for ``duration`` seconds (0 = until a later ``heal``).
* ``heal`` — end an open-ended partition of the site.

Partitions compile to :class:`~repro.simnet.loss.BurstLoss` windows
layered over whatever loss model the tail links already carry — the
composition with existing ``LossModel``s the schedule promises.

Packet faults (windowed, ``target`` = destination host, or ``""`` for
every destination; active for ``duration`` seconds from ``at``):

* ``corrupt`` — each matching delivery is dropped with probability
  ``amount`` (the checksum-discard model: a corrupted packet and a lost
  packet are indistinguishable to the receiver).
* ``duplicate`` — each matching delivery is delivered twice with
  probability ``amount``, the copy 1 ms late.
* ``reorder`` — each matching delivery is delayed by ``amount`` seconds,
  so it lands behind packets sent after it.

Tree faults (``target`` = a logger in a k-level deployment, DESIGN §11):

* ``reparent`` — a mid-epoch tree mutation: move the target logger to
  its best live alternative parent via
  :meth:`~repro.simnet.hierarchy.HierarchyRuntime.force_reparent`.
  On a flat (depth=2) deployment, or when no live alternative parent
  exists, the fault is a no-op and does not count as injected.

Packet faults draw from a :class:`random.Random` derived from the
schedule's ``seed``, so a schedule is one value: same schedule, same
deployment seed, same run — bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packets import Packet

__all__ = ["Fault", "FaultSchedule", "PacketChaos", "DUPLICATE_GAP"]

NODE_KINDS = frozenset({"crash", "restart", "pause", "resume", "skew"})
SITE_KINDS = frozenset({"partition", "heal"})
PACKET_KINDS = frozenset({"corrupt", "duplicate", "reorder"})
TREE_KINDS = frozenset({"reparent"})
ALL_KINDS = NODE_KINDS | SITE_KINDS | PACKET_KINDS | TREE_KINDS

# A duplicate's second copy arrives this long after the original: late
# enough to be a distinct delivery event, early enough to stay inside
# any NACK-suppression window.
DUPLICATE_GAP = 0.001


@dataclass(frozen=True, slots=True)
class Fault:
    """One scheduled fault (see the module docstring for the vocabulary)."""

    kind: str
    at: float
    target: str = ""
    duration: float = 0.0
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {sorted(ALL_KINDS)})")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")
        if self.kind in NODE_KINDS | SITE_KINDS | TREE_KINDS and not self.target:
            raise ValueError(f"{self.kind!r} fault needs a target")
        if self.kind in {"corrupt", "duplicate"} and not 0.0 <= self.amount <= 1.0:
            raise ValueError(f"{self.kind!r} amount is a probability, got {self.amount}")
        if self.kind == "reorder" and self.amount <= 0.0:
            raise ValueError(f"reorder amount is a delay in seconds, got {self.amount}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": self.at,
            "target": self.target,
            "duration": self.duration,
            "amount": self.amount,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        return cls(
            kind=data["kind"],
            at=data["at"],
            target=data.get("target", ""),
            duration=data.get("duration", 0.0),
            amount=data.get("amount", 0.0),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, seeded set of faults — the unit the campaign samples,
    minimizes, and prints as a reproducer."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.faults, key=lambda f: f.at))
        object.__setattr__(self, "faults", ordered)

    def __len__(self) -> int:
        return len(self.faults)

    def of_kinds(self, kinds: frozenset[str] | set[str]) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind in kinds)

    @property
    def node_faults(self) -> tuple[Fault, ...]:
        return self.of_kinds(NODE_KINDS)

    @property
    def packet_faults(self) -> tuple[Fault, ...]:
        return self.of_kinds(PACKET_KINDS)

    @property
    def tree_faults(self) -> tuple[Fault, ...]:
        return self.of_kinds(TREE_KINDS)

    def partition_windows(self) -> dict[str, list[tuple[float, float]]]:
        """Per-site ``(start, end)`` outage windows.

        A ``partition`` with ``duration > 0`` closes itself; with
        ``duration == 0`` it stays open until the site's next ``heal``
        (or forever).
        """
        windows: dict[str, list[tuple[float, float]]] = {}
        heals: dict[str, list[float]] = {}
        for fault in self.faults:
            if fault.kind == "heal":
                heals.setdefault(fault.target, []).append(fault.at)
        for fault in self.faults:
            if fault.kind != "partition":
                continue
            if fault.duration > 0:
                end = fault.at + fault.duration
            else:
                later = [t for t in heals.get(fault.target, []) if t > fault.at]
                end = min(later) if later else float("inf")
            windows.setdefault(fault.target, []).append((fault.at, end))
        return windows

    def without(self, index: int) -> "FaultSchedule":
        """A copy with the ``index``-th fault removed (for minimization)."""
        kept = self.faults[:index] + self.faults[index + 1 :]
        return FaultSchedule(faults=kept, seed=self.seed)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls(
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", [])),
            seed=data.get("seed", 0),
        )

    def packet_chaos(self) -> "PacketChaos | None":
        """The network-mangler view of this schedule (None if no packet
        faults — the network hook then stays entirely off the hot path)."""
        packet_faults = self.packet_faults
        if not packet_faults:
            return None
        # String seeds hash stably across processes (like the core
        # machines' deterministic defaults).
        return PacketChaos(packet_faults, rng=random.Random(f"repro.chaos:{self.seed}"))


class PacketChaos:
    """Windowed packet mangling, installed as ``Network.chaos``.

    The network asks :meth:`arrivals` for the arrival times to schedule
    instead of one clean delivery: ``[]`` drops the packet (corruption),
    two times duplicate it, a single later time delays it behind its
    successors (reordering).  Faults match on the scheduled arrival time
    and, when ``target`` is set, the destination host.
    """

    def __init__(self, faults: Iterable[Fault], rng: random.Random) -> None:
        self._faults = tuple(sorted((f for f in faults if f.kind in PACKET_KINDS), key=lambda f: f.at))
        self._rng = rng
        self.mangled = 0

    def arrivals(self, packet: "Packet", src: str, dst: str, at: float) -> list[float]:
        times = [at]
        for fault in self._faults:
            if at < fault.at:
                break  # faults are time-ordered; nothing later can match
            if at >= fault.at + fault.duration:
                continue
            if fault.target and fault.target != dst:
                continue
            if fault.kind == "corrupt":
                if self._rng.random() < fault.amount:
                    self.mangled += 1
                    return []
            elif fault.kind == "duplicate":
                if self._rng.random() < fault.amount:
                    self.mangled += 1
                    times.append(times[-1] + DUPLICATE_GAP)
            else:  # reorder
                self.mangled += 1
                times = [t + fault.amount for t in times]
        return times
