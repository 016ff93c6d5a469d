"""Sans-IO protocol machine base class and timer bookkeeping.

A :class:`ProtocolMachine` never touches a socket or an event loop.  The
harness (simulator or asyncio runtime) owns time and I/O and drives the
machine through five entry points:

* :meth:`ProtocolMachine.start` — the node came up; the default does
  nothing,
* :meth:`ProtocolMachine.restart` — it came back from a crash (DESIGN §7),
* :meth:`ProtocolMachine.handle` — a packet arrived,
* :meth:`ProtocolMachine.poll` — the clock reached a requested wakeup,
* :meth:`ProtocolMachine.next_wakeup` — when the machine next needs the
  clock.

The contract: after *any* call to ``start``/``restart``/``handle``/``poll``
the harness must re-read ``next_wakeup()`` (over several machines,
:func:`earliest_wakeup`) and reschedule.  Machines must be tolerant of
early or late polls (``poll`` at any time is legal and idempotent when
nothing is due).  The returned actions are carried out by
:func:`~repro.core.actions.run_actions`.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.actions import Action, Address
from repro.core.packets import Packet

__all__ = ["ProtocolMachine", "TimerSet", "earliest_wakeup"]

# Shared nothing-due result for TimerSet.pop_due (callers only iterate).
_NO_KEYS: tuple = ()


class TimerSet:
    """Named one-shot deadlines for a protocol machine.

    Keys are arbitrary hashables (e.g. ``("nack", seq)``).  Setting a key
    replaces its previous deadline; ``pop_due`` returns and clears every
    expired timer in deadline order, which makes machine ``poll`` methods
    a simple loop over fired keys.
    """

    def __init__(self) -> None:
        self._deadlines: dict[Hashable, float] = {}
        # Cached earliest deadline; None means "recompute on next read".
        # next_deadline() runs after every packet on every machine, so it
        # cannot afford a min() over the dict each time.
        self._min: float | None = None

    def set(self, key: Hashable, deadline: float) -> None:
        """Arm (or re-arm) the timer ``key`` to fire at ``deadline``."""
        old = self._deadlines.get(key)
        self._deadlines[key] = deadline
        cached = self._min
        if cached is not None:
            if deadline <= cached:
                self._min = deadline
            elif old == cached:
                self._min = None  # may have re-armed the earliest timer later

    def cancel(self, key: Hashable) -> None:
        """Disarm ``key``; no-op if not armed."""
        removed = self._deadlines.pop(key, None)
        if removed is not None and removed == self._min:
            self._min = None

    def pop_due(self, now: float) -> list[Hashable]:
        """Remove and return all timers with deadline <= ``now``, soonest first.

        The nothing-due result is a shared empty sequence: every caller
        only iterates it, and the poll path hits this case once per
        packet across the fleet.
        """
        deadlines = self._deadlines
        if not deadlines:
            return _NO_KEYS
        # Polls fire for *some* machine's deadline, not necessarily this
        # one's; the cached minimum answers "nothing due" without a scan.
        cached = self._min
        if cached is not None and cached > now:
            return _NO_KEYS
        due = sorted(
            (k for k, t in deadlines.items() if t <= now),
            key=deadlines.__getitem__,
        )
        for key in due:
            del deadlines[key]
        if due:
            self._min = None
        return due

    def next_deadline(self) -> float | None:
        """Earliest armed deadline, or None when no timers are armed."""
        if not self._deadlines:
            return None
        cached = self._min
        if cached is None:
            cached = self._min = min(self._deadlines.values())
        return cached

    def __len__(self) -> int:
        return len(self._deadlines)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._deadlines


class ProtocolMachine:
    """Base class for every sans-IO protocol endpoint."""

    def __init__(self) -> None:
        self.timers = TimerSet()
        self._init_volatile()

    def start(self, now: float) -> list[Action]:
        """Join groups and arm timers as the node comes up.  Runs again
        on a restart, so it must be idempotent."""
        return []

    def restart(self, now: float) -> list[Action]:
        """Rebuild what a crash loses (:meth:`_init_volatile`), then
        :meth:`start`."""
        self._init_volatile()
        return self.start(now)

    def _init_volatile(self) -> None:
        """Build what a crash loses.  ``__init__`` calls it too, so it *is*
        the declaration (a subclass sets what it reads first).  The base
        has none: its restart is a start, as after a pause."""

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        """Process an inbound ``packet`` from ``src`` at time ``now``."""
        raise NotImplementedError

    def poll(self, now: float) -> list[Action]:
        """Run any work whose deadline has passed.  Safe to call anytime."""
        raise NotImplementedError

    def next_wakeup(self) -> float | None:
        """Absolute time of the next deadline, or None if idle."""
        return self.timers.next_deadline()


def earliest_wakeup(machines) -> float | None:
    """The earliest ``next_wakeup()`` of ``machines``, or None if all idle."""
    earliest = None
    for machine in machines:
        due = machine.next_wakeup()
        if due is not None and (earliest is None or due < earliest):
            earliest = due
    return earliest
