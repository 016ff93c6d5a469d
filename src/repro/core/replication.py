"""Primary-log replication with an explicit commit point (§2.2.3, LLFT-grade).

The primary logging server reliably pushes every logged packet to an
explicit *membership* of followers and tracks two watermarks:

* ``primary_seq`` (kept by :class:`~repro.core.logger.LogServer`) —
  highest contiguous sequence the primary itself holds (reported to the
  source so the *application* may continue), and
* ``commit_seq`` — the **commit point**: the highest sequence durably
  held (as a contiguous prefix) by at least ``min_replicas_acked``
  followers.  The source may *discard* data only up to here, so no
  committed packet can be lost by any single-node failure.

With ``min_replicas_acked = 1`` a total log loss needs the primary and
the most up-to-date follower to fail simultaneously; raising it extends
the guarantee to the second-most up-to-date follower "and so forth", as
the paper notes.

Two things distinguish this from a bare watermark tracker:

* **Epochs** — every push is stamped with the primary's promotion term
  (``log_epoch``); acknowledgements from a different term are ignored,
  so a stale primary that comes back after a failover can never advance
  the new term's commit point (see DESIGN.md §10 for the full rules).
* **Membership is dynamic** — a freshly promoted primary *adopts* the
  surviving followers (:meth:`adopt`) and backfills their missing
  prefix from its own log (:meth:`missing_for` / :meth:`replicate_to`),
  so commitment stays replicated across successive failovers instead of
  degenerating to a single copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.actions import Action, Address, SendUnicast
from repro.core.config import ReplicationConfig
from repro.core.machine import TimerSet
from repro.core.packets import ReplUpdatePacket

__all__ = ["FollowerState", "ReplicationManager"]


@dataclass
class FollowerState:
    """Primary-side view of one follower's progress."""

    # Cumulative contiguous prefix the follower confirmed (None = none).
    acked: int | None = None
    # Highest epoch the follower has acknowledged in.
    epoch_seen: int = 0
    # Outstanding (unacked) updates: seq -> (payload, retries so far).
    outstanding: dict[int, tuple[bytes, int]] = field(default_factory=dict)
    # True when the member joined via post-promotion adoption.
    adopted: bool = False


class ReplicationManager:
    """Commit-point bookkeeping: membership, epochs, and retransmissions."""

    #: Cap on backfill pushes issued per acknowledgement, so catching a
    #: freshly adopted follower up is paced by its own ack stream rather
    #: than dumped in one burst.
    BACKFILL_BATCH = 64

    def __init__(
        self,
        group: str,
        replicas: tuple[Address, ...],
        config: ReplicationConfig | None = None,
        *,
        epoch: int = 1,
    ) -> None:
        self._group = group
        self._config = config or ReplicationConfig()
        self._epoch = epoch
        self._members: dict[Address, FollowerState] = {r: FollowerState() for r in replicas}
        self.timers = TimerSet()
        self.stats = {
            "updates_sent": 0,
            "update_retries": 0,
            "acks_received": 0,
            "stale_epoch_acks": 0,
            "members_adopted": 0,
            "members_readopted": 0,
            "backfills": 0,
        }

    # -- introspection ----------------------------------------------------

    @property
    def members(self) -> tuple[Address, ...]:
        """The follower membership."""
        return tuple(self._members)

    @property
    def commit_seq(self) -> int:
        """The commit point: highest sequence durably held by at least
        ``min_replicas_acked`` followers (0 if none)."""
        if not self._members:
            return 0
        acked = sorted(
            (st.acked if st.acked is not None else 0) for st in self._members.values()
        )
        m = min(self._config.min_replicas_acked, len(acked))
        # m-th highest cumulative ACK: index -m from the end.
        return acked[-m]

    # -- membership ----------------------------------------------------------

    def adopt(self, member: Address, now: float) -> bool:
        """Add ``member`` to the follower membership (post-promotion).

        Returns True when the member was new.  The adopted follower's
        progress is unknown until its first acknowledgement arrives;
        until then it holds the commit point at 0, which is exactly the
        conservative behaviour the release gate needs.

        Re-adopting a member that already carries progress (a recorded
        ACK or in-flight updates) resets it to a fresh
        :class:`FollowerState`: the carried-over watermark belongs to a
        previous incarnation of the follower, and trusting it would
        both inflate the commit point and make :meth:`missing_for` skip
        the prefix the restarted follower no longer holds.
        """
        state = self._members.get(member)
        if state is not None:
            if state.acked is None and not state.outstanding:
                return False
            self._reset_member(member)
            return False
        self._members[member] = FollowerState(adopted=True)
        self.stats["members_adopted"] += 1
        return True

    def note_regression(self, replica: Address, cum_seq: int, now: float, epoch: int = 0) -> bool:
        """Detect a follower whose cumulative ACK went *backwards*.

        Acknowledgements are cumulative and monotone, so a report
        strictly below the recorded watermark means the follower lost
        its log (crash + restart with empty state).  The stale
        :class:`FollowerState` is replaced with a fresh adopted one so
        the commit point stops counting the vanished prefix and the
        backfill path re-replicates it.  Returns True when a reset
        happened.  Acks from a foreign epoch are ignored here exactly
        as :meth:`on_ack` ignores them.
        """
        state = self._members.get(replica)
        if state is None or state.acked is None:
            return False
        if epoch and epoch != self._epoch:
            return False
        if cum_seq >= state.acked:
            return False
        self._reset_member(replica)
        return True

    def _reset_member(self, member: Address) -> None:
        self._members[member] = FollowerState(adopted=True)
        self.timers.cancel(("repl_retry", member))
        self.stats["members_readopted"] += 1

    # -- operations ----------------------------------------------------------

    def replicate(self, seq: int, payload: bytes, now: float) -> list[Action]:
        """Push one logged packet to every follower (reliable until acked)."""
        actions: list[Action] = []
        update = ReplUpdatePacket(
            group=self._group,
            seq=seq,
            payload=payload,
            log_epoch=self._epoch,
            commit_seq=self.commit_seq,
        )
        for member, state in self._members.items():
            state.outstanding[seq] = (payload, 0)
            self.timers.set(("repl_retry", member), now + self._config.update_retry)
            self.stats["updates_sent"] += 1
            actions.append(SendUnicast(dest=member, packet=update))
        return actions

    def replicate_to(self, member: Address, seq: int, payload: bytes, now: float) -> list[Action]:
        """Push one packet to a single follower (the backfill path)."""
        state = self._members.get(member)
        if state is None or seq in state.outstanding:
            return []
        state.outstanding[seq] = (payload, 0)
        self.timers.set(("repl_retry", member), now + self._config.update_retry)
        self.stats["updates_sent"] += 1
        self.stats["backfills"] += 1
        update = ReplUpdatePacket(
            group=self._group,
            seq=seq,
            payload=payload,
            log_epoch=self._epoch,
            commit_seq=self.commit_seq,
        )
        return [SendUnicast(dest=member, packet=update)]

    def on_ack(self, replica: Address, cum_seq: int, now: float, epoch: int = 0) -> bool:
        """Record a cumulative follower ACK.  True if the commit point grew.

        ``epoch`` 0 is the pre-epoch wire form and always accepted; any
        other value must match this primary's term — an ack from a
        different term (a follower already serving a newer primary, or a
        delayed ack from before a promotion) must not move this term's
        commit point.
        """
        state = self._members.get(replica)
        if state is None:
            return False
        if epoch and epoch != self._epoch:
            self.stats["stale_epoch_acks"] += 1
            return False
        self.stats["acks_received"] += 1
        if epoch > state.epoch_seen:
            state.epoch_seen = epoch
        before = self.commit_seq
        if state.acked is None or cum_seq > state.acked:
            state.acked = cum_seq
        pending = state.outstanding
        for seq in [s for s in pending if s <= cum_seq]:
            del pending[seq]
        if not pending:
            self.timers.cancel(("repl_retry", replica))
        return self.commit_seq > before

    def missing_for(self, member: Address, through: int) -> list[int]:
        """Sequences ``member`` has neither acked nor in flight, up to
        ``through`` — the backfill work list for an adopted (or lagging)
        follower, capped at :attr:`BACKFILL_BATCH` per call."""
        state = self._members.get(member)
        if state is None:
            return []
        start = (state.acked or 0) + 1
        out: list[int] = []
        for seq in range(start, through + 1):
            if seq in state.outstanding:
                continue
            out.append(seq)
            if len(out) >= self.BACKFILL_BATCH:
                break
        return out

    def poll(self, now: float) -> list[Action]:
        """Retransmit updates a follower has not confirmed in time."""
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            if key[0] != "repl_retry":
                continue
            member = key[1]
            state = self._members.get(member)
            if state is None or not state.outstanding:
                continue
            pending = state.outstanding
            alive: dict[int, tuple[bytes, int]] = {}
            commit = self.commit_seq
            for seq in sorted(pending):
                payload, retries = pending[seq]
                if retries >= self._config.max_update_retries:
                    continue  # follower presumed dead for this entry; drop it
                alive[seq] = (payload, retries + 1)
                self.stats["update_retries"] += 1
                actions.append(
                    SendUnicast(
                        dest=member,
                        packet=ReplUpdatePacket(
                            group=self._group,
                            seq=seq,
                            payload=payload,
                            log_epoch=self._epoch,
                            commit_seq=commit,
                        ),
                    )
                )
            state.outstanding = alive
            if alive:
                self.timers.set(("repl_retry", member), now + self._config.update_retry)
        return actions

    def next_wakeup(self) -> float | None:
        return self.timers.next_deadline()
