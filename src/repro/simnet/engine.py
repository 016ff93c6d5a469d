"""Deterministic discrete-event simulation engine.

One :class:`Simulator`: a binary heap of ``(time, tie, event)`` tuples.
Events execute in ``(time, tie)`` order, where ``tie`` is a monotone
counter assigned at schedule time — so simultaneous events run FIFO,
and two runs issuing the same schedule calls execute bit-identically.

Why nothing cleverer?  LBRM is a low-rate protocol whose receivers NACK
at once, with no suppression timers to cancel, and batched fan-out plus
:class:`WakeupMux` leave the engine one event per *distinct* arrival
time or deadline: a few thousand events per run, a few hundred pending,
and no cancellations at all in any shipped configuration (DESIGN §6
has the counts, and ``tests/simnet/test_engine_traffic.py`` pins them).
A workload that brings per-receiver events or cancel-heavy timers back
fails that test, and reopens the choice of queue knowingly.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Any, Callable

from repro import obs

__all__ = ["ScheduledEvent", "Simulator", "WakeupMux"]


class ScheduledEvent:
    """Handle to a scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "tie", "callback", "args", "cancelled", "_sim")

    def __init__(
        self, time: float, tie: int, callback: Callable[..., Any], args: tuple, sim: "Simulator"
    ) -> None:
        self.time = time
        self.tie = tie
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The owning simulator while queued; None once popped, so a late
        # cancel() cannot book a tombstone for an entry that is gone.
        self._sim: "Simulator | None" = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._tombstones += 1


class Simulator:
    """The simulation clock and event queue (a binary heap).

    ``start`` is the initial clock value.  Cancellation is lazy: a
    cancelled event stays in the heap as a tombstone and is discarded
    when it surfaces.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        # (time, tie, event) tuples: heapq then compares at C speed (tie
        # is unique, so the event itself never compares).
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._tie = itertools.count()
        self._processed = 0
        self._tombstones = 0
        self._peak_pending = 0
        registry = obs.registry()
        self._obs_processed = registry.counter("sim.events_processed")
        # The queue gauges, built only under a recording registry.
        self._obs_depths = (registry.gauge("sim.queue_depth"),
                            registry.gauge("sim.peak_queue_depth")) if registry.enabled else None

    # -- clock & counters ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events scheduled but not yet fired."""
        return len(self._queue) - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying heap storage."""
        return self._tombstones

    @property
    def peak_pending(self) -> int:
        """High-water mark of live pending events over the run."""
        return self._peak_pending

    @property
    def processed(self) -> int:
        """Total events executed so far."""
        return self._processed

    # -- scheduling ----------------------------------------------------------

    def schedule(self, at: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute time ``at``.

        Scheduling in the past is clamped to *now* (fires next) rather
        than rejected — protocol machines legitimately ask for immediate
        wakeups.
        """
        if at < self._now:
            at = self._now
        tie = next(self._tie)
        event = ScheduledEvent(at, tie, callback, args, self)
        heapq.heappush(self._queue, (at, tie, event))
        live = len(self._queue) - self._tombstones
        if live > self._peak_pending:
            self._peak_pending = live
        return event

    def schedule_in(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        return self.schedule(self._now + delay, callback, *args)

    # -- execution -----------------------------------------------------------

    def run_until(self, deadline: float, max_events: int | None = None) -> int:
        """Execute events with time <= ``deadline``; returns events run.

        The clock lands exactly on ``deadline`` afterwards, so repeated
        ``run_until`` calls paint a contiguous timeline.
        """
        executed = self._run(deadline, max_events)
        self._now = max(self._now, deadline)
        self._finish(executed)
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Drain the queue entirely (bounded by ``max_events``)."""
        executed = self._run(math.inf, max_events)
        self._finish(executed)
        return executed

    def _run(self, deadline: float, max_events: int | None) -> int:
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        budget = sys.maxsize if max_events is None else max_events
        while queue and queue[0][0] <= deadline and executed < budget:
            when, _tie, event = pop(queue)
            event._sim = None
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._now = when
            event.callback(*event.args)
            executed += 1
        # Batched: nothing reads the processed counter mid-run.
        self._processed += executed
        return executed

    def _finish(self, executed: int) -> None:
        self._obs_processed.inc(executed)
        if self._obs_depths is not None:
            self._obs_depths[0].set(self.pending)
            self._obs_depths[1].set(self._peak_pending)


class WakeupMux:
    """One simulator event per *distinct* wakeup deadline, shared by nodes.

    Co-sited receivers hear each multicast at the same instant and re-arm
    byte-identical watchdog deadlines — in the paper's 50×20 deployment
    every data packet produces twenty copies of the same wakeup time per
    site.  Scheduling one event per distinct deadline and fanning the
    polls out inside the callback removes the dominant event-count term
    from steady-state traffic, the same move the network's batched
    delivery makes for arrivals.  Every ``Network`` has one and every
    ``SimNode`` arms through it; tests/_oracles/fanout.py holds it to
    one event per arm.

    Cancellation is lazy: re-arming never removes a node from an earlier
    bucket.  The fire loop skips any node whose armed deadline
    (``_mux_due``) no longer matches the bucket's, so a stale entry costs
    one attribute compare instead of a heap cancel.  Within a bucket,
    nodes fire in arm order — exactly the tie-counter order the per-node
    scheme yields for co-timed wakeups.

    Nor does a node re-arm *later* when its deadline moves out: every
    packet pushes a receiver's freshness watchdog back, so nearly every
    bucket a receiver is in has gone stale by the time it fires (194,838
    of 195,720 wakeups per ``exact_lossy`` unit).  The node keeps the
    true-time deadline its machines last declared in ``_due``; a node
    whose ``_due`` is still ahead is re-bucketed there in place — the
    ``arm`` its ``poll`` would have made, at the same point of the loop,
    so buckets, ``schedule`` calls and tie counters do not move — and
    only a node with something due is polled.  A cohort member's node
    keeps no ``_due`` (None): its deadline is its cohort's, so a cohort
    run writes no member's and arms none unless it moves earlier (the
    saving is DESIGN §6's, 1.28x on ``exact_fanout``), while each member
    still re-buckets through its own ``arm``.
    """

    __slots__ = ("_sim", "_buckets")

    def __init__(self, sim) -> None:
        self._sim = sim
        self._buckets: dict[float, list] = {}

    def arm(self, node, due: float) -> None:
        """Ensure ``node.poll()`` runs at ``due`` (node sets ``_mux_due``)."""
        bucket = self._buckets.get(due)
        if bucket is None:
            self._buckets[due] = [node]
            self._sim.schedule(due, self._fire, due)
        else:
            bucket.append(node)

    def _fire(self, due: float) -> None:
        # Pop before iterating: a node that re-arms this exact deadline
        # from inside poll() gets a fresh bucket (and a fresh event,
        # clamped to now), never an append into the list being walked.
        now = self._sim._now
        for node in self._buckets.pop(due):
            if node._mux_due == due:
                later = node._due
                if later is None:  # a cohort member: the deadline is its cohort's
                    later = node._receiver._cohort._maxit_deadline
                if later > now:
                    node._mux_due = later
                    self.arm(node, later)
                else:
                    node._mux_due = None
                    node.poll()
