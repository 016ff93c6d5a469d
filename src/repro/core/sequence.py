"""Receiver-side sequence tracking and gap detection.

The LBRM receiver recognizes loss "when it detects a gap in the sequence
numbers of received packets, or when it has not received a packet for
MaxIT" (§2).  :class:`SequenceTracker` implements the first half: it
records which sequence numbers have arrived, exposes the missing set,
and — because the protocol is receiver-reliable — never delays delivery
of fresh data waiting for retransmissions (§1: "favoring immediate
reception of the latest data over waiting for retransmission").

Sequence numbers start at 1; 0 means "nothing sent yet" (a heartbeat
with seq 0 is legal before the first data packet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["SequenceTracker", "GapReport"]


@dataclass(frozen=True, slots=True)
class GapReport:
    """Outcome of observing one sequence number.

    ``is_new`` — first sighting of this sequence (deliver it).
    ``new_gaps`` — sequence numbers that just became known-missing.
    ``filled_gap`` — True when this packet repaired an earlier gap.
    """

    is_new: bool
    new_gaps: tuple[int, ...] = ()
    filled_gap: bool = False


# GapReport is frozen, so the no-gap outcomes — the per-packet common
# case — are shared instances instead of a fresh (slow, via
# object.__setattr__) dataclass construction per observation.
_NEW = GapReport(is_new=True)
_NEW_FILLED = GapReport(is_new=True, filled_gap=True)
_OLD = GapReport(is_new=False)


class SequenceTracker:
    """Tracks the per-flow sequence space at a receiver or logger.

    The tracker's invariants (exercised by property-based tests):

    * ``highest`` is the largest sequence number ever observed.
    * ``missing`` is exactly the set of s in [first_seen, highest] never
      observed.
    * every sequence is reported ``is_new`` at most once.

    A receiver may join mid-stream: the first observed sequence becomes
    the baseline and earlier history is not considered missing (late
    joiners recover old state at the application level, not here).
    """

    def __init__(self) -> None:
        self._highest = 0
        self._first = 0  # first sequence ever seen; 0 = nothing yet
        self._missing: set[int] = set()
        self._abandoned: set[int] = set()

    @property
    def highest(self) -> int:
        """Largest sequence number observed so far (0 = none)."""
        return self._highest

    @property
    def missing(self) -> frozenset[int]:
        """Sequence numbers known to be lost and not yet recovered."""
        return frozenset(self._missing)

    @property
    def started(self) -> bool:
        """True once at least one sequence number has been observed."""
        return self._first != 0

    @property
    def first_seen(self) -> int:
        """First sequence number ever observed (0 = none yet).

        This is the receiver-reliability baseline: a mid-stream joiner
        owes itself the stream from here on, not earlier history.
        """
        return self._first

    def expect_from(self, seq: int = 1) -> None:
        """Declare the stream's base before any observation.

        A tracker primed with ``expect_from(1)`` treats the whole
        sequence space as owed: the first observed packet reports
        everything from ``seq`` up to it as missing, instead of the
        default mid-stream-joiner baseline.  Log replicas use this —
        the replication stream covers the entire log, so a replica
        whose first observation is ``k`` genuinely misses ``1..k-1``
        (e.g. after a restart from empty state) and must not report a
        contiguous prefix it does not hold.  No-op once started.
        """
        if seq <= 0:
            raise ValueError(f"sequence numbers start at 1, got {seq}")
        if self._first == 0:
            self._first = seq
            self._highest = seq - 1

    def observe_data(self, seq: int) -> GapReport:
        """Record arrival of data (or retransmission) with sequence ``seq``.

        Returns what changed: whether the packet is new, and which
        sequence numbers were newly discovered missing.
        """
        if seq <= 0:
            raise ValueError(f"sequence numbers start at 1, got {seq}")
        if self._first == 0:  # self.started, sans the property call
            self._first = seq
            self._highest = seq
            return _NEW
        if seq > self._highest:
            if seq == self._highest + 1:
                self._highest = seq
                return _NEW
            gaps = tuple(range(self._highest + 1, seq))
            self._missing.update(gaps)
            self._highest = seq
            return GapReport(is_new=True, new_gaps=gaps)
        if seq in self._missing:
            self._missing.discard(seq)
            return _NEW_FILLED
        if seq in self._abandoned:
            # Late arrival after the receiver gave up: still fresh data.
            self._abandoned.discard(seq)
            return _NEW_FILLED
        return _OLD

    def observe_heartbeat(self, seq: int) -> GapReport:
        """Record a heartbeat repeating the source's last data sequence.

        A heartbeat carries no payload but asserts "the source has sent
        everything up to ``seq``" — so a heartbeat can *reveal* gaps
        (including the common single-loss case where the data packet
        itself was dropped and the first h_min heartbeat exposes it).
        Heartbeats never fill gaps and are never "new data".

        A heartbeat with ``seq == 0`` (source idle before first send)
        refreshes liveness only.
        """
        if seq < 0:
            raise ValueError(f"heartbeat sequence must be >= 0, got {seq}")
        if seq == 0:
            return _OLD
        if self._first == 0:  # self.started, sans the property call
            # Joined mid-stream during an idle period: baseline at seq,
            # and seq itself is missing (we never got its data).
            self._first = seq
            self._highest = seq
            self._missing.add(seq)
            return GapReport(is_new=False, new_gaps=(seq,))
        if seq > self._highest:
            gaps = tuple(range(self._highest + 1, seq + 1))
            self._missing.update(gaps)
            self._highest = seq
            return GapReport(is_new=False, new_gaps=gaps)
        return _OLD

    def abandon(self, seqs: Iterable[int]) -> None:
        """Stop tracking ``seqs`` as missing (recovery given up or data
        superseded at the application's request — receiver-reliability
        means the receiver decides).  Abandoned sequences are remembered
        as *not held*: :meth:`has` stays False for them."""
        for seq in seqs:
            if seq in self._missing:
                self._missing.discard(seq)
                self._abandoned.add(seq)

    def has(self, seq: int) -> bool:
        """True when ``seq`` was observed (directly or via recovery)."""
        if not self.started or seq < self._first or seq > self._highest:
            return False
        return seq not in self._missing and seq not in self._abandoned

    def __repr__(self) -> str:
        return (
            f"SequenceTracker(highest={self._highest}, "
            f"missing={sorted(self._missing)!r})"
        )
