"""Structured event tracing — a bounded ring buffer of protocol events.

Counters tell you *how much*; the trace tells you *in what order*.  Every
instrumented subsystem emits :class:`TraceEvent` records keyed by its
clock — simulated time under :mod:`repro.simnet`, the event-loop clock
under :mod:`repro.aio` — so a trace from a seeded simulation run is a
deterministic, bit-comparable artifact (the determinism regression test
relies on exactly this).

The buffer is a ring: when full, the oldest events fall off and
``dropped`` counts them, bounding memory on arbitrarily long runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["TraceEvent", "EventTrace", "NullTrace", "NULL_TRACE"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced occurrence: when, what, and structured detail."""

    time: float
    name: str
    fields: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        return {"time": self.time, "name": self.name, **dict(self.fields)}


class EventTrace:
    """Fixed-capacity ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    @property
    def dropped(self) -> int:
        """Events evicted by the ring (emitted beyond capacity)."""
        return self.emitted - len(self._events)

    def emit(self, time: float, name: str, **fields: object) -> None:
        """Record an event.  Field values should be hashable scalars or
        tuples so traces compare and serialize deterministically."""
        self.emitted += 1
        self._events.append(
            TraceEvent(time=time, name=name, fields=tuple(sorted(fields.items())))
        )

    def events(self, name: str | None = None) -> tuple[TraceEvent, ...]:
        """The buffered events, oldest first, optionally filtered."""
        if name is None:
            return tuple(self._events)
        return tuple(e for e in self._events if e.name == name)

    def reset(self) -> None:
        self._events.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(tuple(self._events))


class NullTrace:
    """Do-nothing trace used by the no-op registry."""

    __slots__ = ()
    dropped = 0
    emitted = 0

    def emit(self, time: float, name: str, **fields: object) -> None:
        pass

    def events(self, name: str | None = None) -> tuple:
        return ()

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())


NULL_TRACE = NullTrace()
