"""Deterministic discrete-event simulation engine.

Two implementations of the same contract:

* :class:`Simulator` — the fast path: a timer wheel staging near-future
  events in O(1) buckets in front of a binary heap, with periodic
  tombstone compaction.  This is what every benchmark and deployment
  uses.
* :class:`ReferenceSimulator` — the original pure-heap engine, kept as
  the executable specification.  Property tests drive both with random
  schedule/cancel/reschedule interleavings and assert identical
  execution orders; the chaos campaigns replay every case on both.

The ordering contract both implement: events execute in ``(time, tie)``
order, where ``tie`` is a monotone counter assigned at schedule time —
so simultaneous events run FIFO, and two runs issuing the same schedule
calls execute bit-identically.

Why a wheel?  Protocol machines cancel and reschedule short-horizon
timers constantly (heartbeat backoff, receiver watchdogs, NACK
suppression): under the pure heap every one of those is an O(log n)
push whose shell later surfaces as a tombstone pop.  The wheel makes
near-future schedule *and* cancel O(1) — a cancelled entry dies in its
bucket as a dead list slot, never touching the heap.  Only events that
survive to their slot's turn pay the heap push, and far-future events
(beyond the wheel horizon) fall back to the heap directly.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Any, Callable

from repro import obs

__all__ = ["ScheduledEvent", "Simulator", "ReferenceSimulator", "WakeupMux"]

# Upper bound on parked event shells; beyond this the allocator is fast
# enough that hoarding memory buys nothing.
_POOL_CAP = 8192


class ScheduledEvent:
    """Handle to a scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "tie", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, tie: int, callback: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.tie = tie
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: "Simulator | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.tie) < (other.time, other.tie)


class Simulator:
    """The simulation clock and event queue (timer wheel + heap).

    Parameters
    ----------
    start:
        Initial clock value.
    wheel_granularity:
        Width of one wheel slot in seconds.  Events closer to *now* than
        one slot go straight to the heap; events within
        ``wheel_granularity * wheel_slots`` of the current wheel base are
        staged in O(1) buckets.
    wheel_slots:
        Number of slots (the wheel horizon is ``slots * granularity``).
    compact_ratio:
        Compact (drop cancelled shells from) the queue when tombstones
        exceed ``compact_ratio`` × live events and ``compact_min``.
    """

    def __init__(
        self,
        start: float = 0.0,
        wheel_granularity: float = 0.01,
        wheel_slots: int = 1024,
        compact_ratio: float = 1.0,
        compact_min: int = 256,
    ) -> None:
        if wheel_granularity <= 0:
            raise ValueError(f"wheel_granularity must be positive, got {wheel_granularity}")
        if wheel_slots < 2:
            raise ValueError(f"wheel_slots must be >= 2, got {wheel_slots}")
        self._now = start
        # Heap entries are (time, tie, event) tuples: heapq then compares
        # at C speed (tie is unique, so the event itself never compares).
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._tie = itertools.count()
        self._processed = 0
        # Timer wheel state: `_wheel_pos` is the absolute index (time //
        # granularity) of the next slot that has not yet been flushed to
        # the heap; bucket i holds the events of every absolute slot
        # congruent to i within the current horizon window.
        self._gran = wheel_granularity
        self._slots = wheel_slots
        self._wheel: list[list[ScheduledEvent]] = [[] for _ in range(wheel_slots)]
        self._wheel_pos = math.floor(start / wheel_granularity)
        self._wheel_count = 0
        # Tombstone accounting and compaction thresholds.
        self._tombstones = 0
        self._compact_ratio = compact_ratio
        self._compact_min = compact_min
        self.compactions = 0
        self._peak_pending = 0
        # Event-shell freelist: fired and cancelled shells are reused by
        # schedule() instead of churning one ScheduledEvent allocation
        # per event.  A shell is recycled only when the run loop holds
        # the sole remaining reference (sys.getrefcount(event) == 2: the
        # loop's local plus getrefcount's own argument) — so a handle
        # kept anywhere else (a node's pending wakeup, a test) can never
        # watch its event be resurrected as someone else's.
        self._pool: list[ScheduledEvent] = []
        self._getrefcount = getattr(sys, "getrefcount", None)  # absent on PyPy
        registry = obs.registry()
        self._obs_processed = registry.counter("sim.events_processed")
        self._obs_queue_depth = registry.gauge("sim.queue_depth")
        self._obs_peak_depth = registry.gauge("sim.peak_queue_depth")

    # -- clock & counters ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def freelist_size(self) -> int:
        """Event shells currently parked for reuse."""
        return len(self._pool)

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events scheduled but not yet fired."""
        return len(self._queue) + self._wheel_count - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled shells still occupying queue or wheel storage."""
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
        pool = self._pool
        if pool:
            # Pooled shells are always reset (cancelled=False, _sim=None)
            # before parking, so reuse is plain field assignment.
            event = pool.pop()
            event.time = at
            event.tie = next(self._tie)
            event.callback = callback
            event.args = args
        else:
            event = ScheduledEvent(at, next(self._tie), callback, args)
        event._sim = self
        gran = self._gran
        wheel_pos = self._wheel_pos
        if self._wheel_count == 0:
            # Empty wheel: snap the base forward so the horizon tracks
            # the clock instead of walking stale empty slots later.
            pos = math.floor(self._now / gran)
            if pos > wheel_pos:
                self._wheel_pos = wheel_pos = pos
        slot = int(at / gran)
        if slot * gran > at:
            # Truncation or float division rounded across the boundary; the
            # ordering invariant requires every wheel event's time >= its
            # slot base.  (For at >= 0 truncation is floor; negative clocks
            # only ever over-shoot by one, which this branch repairs.)
            slot -= 1
        if wheel_pos <= slot < wheel_pos + self._slots:
            self._wheel[slot % self._slots].append(event)
            self._wheel_count += 1
        else:
            heapq.heappush(self._queue, (at, event.tie, event))
        live = len(self._queue) + self._wheel_count - self._tombstones
        if live > self._peak_pending:
            self._peak_pending = live
        return event

    def schedule_in(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        return self.schedule(self._now + delay, callback, *args)

    # -- tombstone accounting & compaction ----------------------------------

    def _note_cancel(self) -> None:
        self._tombstones += 1
        live = len(self._queue) + self._wheel_count - self._tombstones
        if self._tombstones >= self._compact_min and self._tombstones > self._compact_ratio * live:
            self._compact()

    def _compact(self) -> None:
        """Physically drop cancelled shells from the heap and the wheel."""
        survivors = []
        for entry in self._queue:
            event = entry[2]
            if event.cancelled:
                event._sim = None
            else:
                survivors.append(entry)
        heapq.heapify(survivors)
        # In place: _run() holds a reference to this list across callbacks,
        # and a callback's cancel() can land here — rebinding would strand
        # the run loop on a stale queue.
        self._queue[:] = survivors
        for i, bucket in enumerate(self._wheel):
            if not bucket:
                continue
            kept = []
            for event in bucket:
                if event.cancelled:
                    event._sim = None
                    self._wheel_count -= 1
                else:
                    kept.append(event)
            self._wheel[i] = kept
        self._tombstones = 0
        self.compactions += 1

    # -- wheel → heap staging ------------------------------------------------

    def _flush_slot(self) -> None:
        """Move the next wheel slot's surviving events into the heap."""
        bucket = self._wheel[self._wheel_pos % self._slots]
        if bucket:
            self._wheel_count -= len(bucket)
            push = heapq.heappush
            queue = self._queue
            pool = self._pool
            getrefcount = self._getrefcount
            # Pop (rather than iterate-then-clear) so a dead shell's only
            # remaining reference is the local — making it poolable.  Push
            # order within the bucket is irrelevant: the heap re-sorts.
            while bucket:
                event = bucket.pop()
                if event.cancelled:
                    event._sim = None
                    self._tombstones -= 1
                    if (
                        getrefcount is not None
                        and getrefcount(event) == 2
                        and len(pool) < _POOL_CAP
                    ):
                        event.cancelled = False
                        event.callback = None
                        event.args = None
                        pool.append(event)
                else:
                    push(queue, (event.time, event.tie, event))
        self._wheel_pos += 1

    def _refill(self, limit: float) -> None:
        """Flush wheel slots until the heap's head is provably earliest.

        Any event still in the wheel has ``time >= wheel_base``; once the
        heap head is strictly earlier than the wheel base (or the base
        has passed ``limit``), popping the heap is safe.
        """
        while self._wheel_count:
            base = self._wheel_pos * self._gran
            if base > limit:
                break
            if self._queue and self._queue[0][0] < base:
                break
            self._flush_slot()

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
        pool = self._pool
        getrefcount = self._getrefcount
        gran = self._gran
        # One compare per iteration instead of a None check plus a
        # compare; callers never pass budgets anywhere near this bound.
        budget = sys.maxsize if max_events is None else max_events
        while True:
            if self._wheel_count:
                # _refill's first-iteration break conditions, inlined:
                # after a refill the heap head is almost always earlier
                # than the wheel base, so most iterations skip the call
                # entirely on two float compares.
                base = self._wheel_pos * gran
                if base <= deadline and not (queue and queue[0][0] < base):
                    self._refill(deadline)
            if not queue:
                break
            when = queue[0][0]
            if when > deadline:
                break
            if executed >= budget:
                break
            event = pop(queue)[2]
            event._sim = None
            if event.cancelled:
                self._tombstones -= 1
                if (
                    getrefcount is not None
                    and getrefcount(event) == 2
                    and len(pool) < _POOL_CAP
                ):
                    event.cancelled = False
                    event.callback = None
                    event.args = None
                    pool.append(event)
                continue
            self._now = when
            event.callback(*event.args)
            executed += 1
            # Recycle the fired shell iff nobody else holds the handle.
            if getrefcount is not None and getrefcount(event) == 2 and len(pool) < _POOL_CAP:
                event.callback = None
                event.args = None
                pool.append(event)
        # Batched: nothing reads the processed counter mid-run, and the
        # per-event increment was measurable at fig7 scale.
        self._processed += executed
        return executed

    def _finish(self, executed: int) -> None:
        self._obs_processed.inc(executed)
        self._obs_queue_depth.set(self.pending)
        self._obs_peak_depth.set(self._peak_pending)


class WakeupMux:
    """One simulator event per *distinct* wakeup deadline, shared by nodes.

    Co-sited receivers hear each multicast at the same instant and re-arm
    byte-identical watchdog deadlines — in the paper's 50×20 deployment
    every data packet produces twenty copies of the same wakeup time per
    site.  Scheduling one event per distinct deadline and fanning the
    polls out inside the callback removes the dominant event-count term
    from steady-state traffic, the same move the network's batched
    delivery makes for arrivals.  The mux is tied to
    ``Network.batch_delivery``; with that off (a test oracle) every node
    wakeup is its own event.

    Cancellation is lazy: re-arming never removes a node from an earlier
    bucket.  The fire loop skips any node whose armed deadline
    (``_mux_due``) no longer matches the bucket's, so a stale entry costs
    one attribute compare instead of a heap cancel.  Within a bucket,
    nodes fire in arm order — exactly the tie-counter order the per-node
    scheme yields for co-timed wakeups.
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
        for node in self._buckets.pop(due):
            if node._mux_due == due:
                node._mux_due = None
                node.poll()


class ReferenceSimulator:
    """The original pure-heap engine: the executable ordering spec.

    Kept verbatim (modulo live-``pending`` accounting) so the property
    suite can assert the wheel engine's execution order against it and
    the chaos/sweep campaigns can demand identical digests from both.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._queue: list[ScheduledEvent] = []
        self._tie = itertools.count()
        self._processed = 0
        self._tombstones = 0
        self._peak_pending = 0
        registry = obs.registry()
        self._obs_processed = registry.counter("sim.events_processed")
        self._obs_queue_depth = registry.gauge("sim.queue_depth")
        self._obs_peak_depth = registry.gauge("sim.peak_queue_depth")

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events scheduled but not yet fired."""
        return len(self._queue) - self._tombstones

    @property
    def tombstones(self) -> int:
        return self._tombstones

    @property
    def peak_pending(self) -> int:
        return self._peak_pending

    @property
    def processed(self) -> int:
        return self._processed

    def _note_cancel(self) -> None:
        self._tombstones += 1

    def schedule(self, at: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        event = ScheduledEvent(max(at, self._now), next(self._tie), callback, args)
        event._sim = self  # type: ignore[assignment]
        heapq.heappush(self._queue, event)
        live = len(self._queue) - self._tombstones
        if live > self._peak_pending:
            self._peak_pending = live
        return event

    def schedule_in(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        return self.schedule(self._now + delay, callback, *args)

    def run_until(self, deadline: float, max_events: int | None = None) -> int:
        executed = 0
        while self._queue and self._queue[0].time <= deadline:
            if max_events is not None and executed >= max_events:
                break
            event = heapq.heappop(self._queue)
            event._sim = None
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._now = event.time
            event.callback(*event.args)
            self._processed += 1
            executed += 1
        self._now = max(self._now, deadline)
        self._obs_processed.inc(executed)
        self._obs_queue_depth.set(self.pending)
        self._obs_peak_depth.set(self._peak_pending)
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        executed = 0
        while self._queue and executed < max_events:
            event = heapq.heappop(self._queue)
            event._sim = None
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._now = event.time
            event.callback(*event.args)
            self._processed += 1
            executed += 1
        self._obs_processed.inc(executed)
        self._obs_queue_depth.set(self.pending)
        self._obs_peak_depth.set(self._peak_pending)
        return executed
