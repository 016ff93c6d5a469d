"""Transport-agnostic bookkeeping for the LBRM protocol invariants.

:class:`InvariantLedger` holds the state and judgement logic behind the
receiver-reliability invariants I1–I6 (DESIGN.md §7) without knowing
*where* the observations come from.  :class:`~repro.chaos.oracle.ChaosOracle`
feeds it from either runtime — a simulated
:class:`~repro.simnet.deploy.LbrmDeployment` or a real-UDP
:class:`~repro.aio.cluster.AioCluster` — through the same node
``on_send``/``on_event`` taps and sweeps on the runtime's own clock, so
a conformance result from either engine means the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.config import HeartbeatConfig
from repro.core.logger import LoggerRole
from repro.core.packets import PacketType

__all__ = ["InvariantLedger", "Violation", "SOURCE_TYPES"]

#: Packet types that prove the source is alive (I2's silence clock).
SOURCE_TYPES = frozenset(
    {int(PacketType.DATA), int(PacketType.HEARTBEAT), int(PacketType.RETRANS)}
)

#: I2/I6 multiplier on the promised interval: receivers' watchdogs wait
#: "a small multiple (2 in our implementation)" of it (§2.1.1).
SILENCE_SLACK = 2.0


@dataclass(frozen=True, slots=True)
class Violation:
    """One observed invariant breach."""

    # "delivery" | "silence" | "log-safety" | "log-completeness" |
    # "promotion" | "committed-loss" | "stale-epoch" | "failover-stall"
    invariant: str
    time: float
    subject: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "subject": self.subject,
            "detail": self.detail,
        }


class InvariantLedger:
    """Accumulates observations and records invariant violations.

    The oracle calls the ``on_*`` methods as events arrive and the
    ``check_*`` methods from its periodic sweeps / end-of-run hooks;
    each check appends to :attr:`violations` (and bumps the
    ``chaos.violations`` obs counter) when its invariant is breached.
    """

    def __init__(
        self,
        heartbeat: HeartbeatConfig,
        *,
        grace: float = 0.25,
        max_idle_time: float | None = None,
    ) -> None:
        self.violations: list[Violation] = []
        self._hb = heartbeat
        self._grace = grace
        # I6's stall bound: recovery after a failover must resume within
        # about one MaxIT.  Defaults to h_max when not configured.
        self._max_idle = max_idle_time if max_idle_time is not None else heartbeat.h_max
        self._last_tx: float | None = None
        self._expected = heartbeat.h_min
        self._silence_reported_at: float | None = None
        self._safety_reported: tuple[int, int] | None = None
        # Last role each primary-capable machine was seen in (I4's
        # no-demotion check), keyed by the oracle's subject name.
        self._roles: dict[str, LoggerRole] = {}
        self._promotions: list[tuple[float, str, int]] = []
        self._promoted: set[str] = set()
        # I6: the commit-point ratchet and any failover awaiting catch-up.
        # Epochs start at 1 (the configured primary's term): any
        # promotion must move strictly beyond the term it replaces.
        self._committed_high = 0
        self._committed_reported = 0
        self._last_epoch = 1
        self._pending_failover: tuple[float, int] | None = None
        self._obs_violations = obs.registry().counter("chaos.violations")

    def record(self, invariant: str, time: float, subject: str, detail: str) -> None:
        self.violations.append(
            Violation(invariant=invariant, time=time, subject=subject, detail=detail)
        )
        self._obs_violations.inc()

    # -- I2: bounded sender silence ---------------------------------------

    def on_source_tx(self, ptype: int, now: float, hb_index: int = 0) -> None:
        """One source transmission (data/heartbeat/retrans) was observed."""
        if self._last_tx is None or now > self._last_tx:
            self._last_tx = now
        if ptype == int(PacketType.DATA):
            self._expected = self._hb.h_min
        elif ptype == int(PacketType.HEARTBEAT):
            hb = self._hb
            self._expected = min(hb.h_min * hb.backoff**hb_index, hb.h_max)
        # RETRANS proves liveness but does not reset the heartbeat clock.

    def reset_silence_clock(self, now: float) -> None:
        """A crashed or paused source is entitled to silence; give it one
        fresh interval after recovery."""
        self._last_tx = now

    def check_silence(self, now: float) -> None:
        """I2: the source is never silent beyond its heartbeat promise."""
        if self._last_tx is None:
            return  # nothing sent yet; the promise starts with the stream
        silent = now - self._last_tx
        allowed = SILENCE_SLACK * self._expected + self._grace
        if silent > allowed:
            # One report per silence episode, not one per sweep.
            if self._silence_reported_at != self._last_tx:
                self._silence_reported_at = self._last_tx
                self.record(
                    "silence", now, "source",
                    f"silent {silent:.3f}s, allowed {allowed:.3f}s "
                    f"(expected interval {self._expected:.3f}s x slack {SILENCE_SLACK})",
                )

    # -- I3: log safety / completeness -------------------------------------

    def check_log_safety(self, now: float, released: int, held: int) -> None:
        """I3 (safety): released data is still held by some log."""
        if released == 0:
            return
        if released > held and self._safety_reported != (released, held):
            self._safety_reported = (released, held)
            self.record(
                "log-safety", now, "source",
                f"source released through seq {released} but the best live "
                f"log holds only {held} contiguously",
            )

    def check_log_completeness(
        self, now: float, subject: str, primary_seq: int, high: int
    ) -> None:
        """I3 (completeness): a live log ends at the sender's high-water mark."""
        if primary_seq < high:
            self.record(
                "log-completeness", now, subject,
                f"holds contiguously through {primary_seq}, "
                f"sender high-water mark is {high}",
            )

    def check_current_primary(
        self, now: float, subject: str, primary_seq: int, released: int
    ) -> None:
        """The logger the sender trusts must cover everything discarded."""
        if primary_seq < released:
            self.record(
                "log-completeness", now, subject,
                f"current primary holds through {primary_seq}, "
                f"source already released through {released}",
            )

    # -- I4: monotone promotion ---------------------------------------------

    def observe_role(self, subject: str, role: LoggerRole, now: float) -> None:
        """I4 (part): once PRIMARY, always PRIMARY."""
        last = self._roles.get(subject)
        if last is LoggerRole.PRIMARY and role is not LoggerRole.PRIMARY:
            self.record("promotion", now, subject, f"demoted from PRIMARY to {role.name}")
        self._roles[subject] = role

    def on_promotion(self, subject: str, from_seq: int, now: float, epoch: int = 0) -> None:
        """I4 (part): promotions are one-shot and sequence-monotone.

        ``epoch`` (I6, when reported) must move strictly beyond every
        term seen so far — a promotion into a term the group already
        left would resurrect a stale primary.
        """
        if subject in self._promoted:
            self.record("promotion", now, subject, "promoted to PRIMARY a second time")
        self._promoted.add(subject)
        if self._promotions:
            _, prev_name, prev_seq = self._promotions[-1]
            if from_seq < prev_seq:
                self.record(
                    "promotion", now, subject,
                    f"promoted from_seq {from_seq} after {prev_name} "
                    f"was promoted at from_seq {prev_seq}",
                )
        self._promotions.append((now, subject, from_seq))
        if epoch:
            if epoch <= self._last_epoch:
                self.record(
                    "stale-epoch", now, subject,
                    f"promoted into epoch {epoch}, but the group already "
                    f"reached epoch {self._last_epoch}",
                )
            else:
                self._last_epoch = epoch

    # -- I6: committed packets survive failover -----------------------------

    def on_commit_point(self, seq: int, now: float) -> None:
        """The commit point was observed at ``seq`` (ratchets up only)."""
        if seq > self._committed_high:
            self._committed_high = seq

    def check_committed_survival(self, now: float, subject: str, prefix: int) -> None:
        """I6 (safety): the trusted primary covers every committed packet."""
        if prefix < self._committed_high and self._committed_reported != self._committed_high:
            self._committed_reported = self._committed_high
            self.record(
                "committed-loss", now, subject,
                f"holds contiguously through {prefix}, but seq "
                f"{self._committed_high} was already committed",
            )

    def on_failover(self, now: float, high: int) -> None:
        """A failover began: the promoted primary owes prefix ``high``."""
        if self._pending_failover is None or high > self._pending_failover[1]:
            self._pending_failover = (now, high)

    def check_failover_stall(self, now: float, trusted_prefix: int) -> None:
        """I6 (liveness): post-failover catch-up completes within ~one MaxIT."""
        if self._pending_failover is None:
            return
        started, high = self._pending_failover
        if trusted_prefix >= high:
            self._pending_failover = None
            return
        allowed = SILENCE_SLACK * self._max_idle + self._grace
        if now - started > allowed:
            self._pending_failover = None
            self.record(
                "failover-stall", now, "source",
                f"promoted primary reached only {trusted_prefix} of {high} "
                f"{now - started:.3f}s after failover (allowed {allowed:.3f}s)",
            )

    # -- I1: eventual gap-free delivery -------------------------------------

    def check_delivery(
        self, now: float, subject: str, tracker, high: int, recovery_failures: int
    ) -> None:
        """I1: one live receiver ends gap-free with nothing abandoned."""
        if not tracker.started:
            if high:
                self.record(
                    "delivery", now, subject,
                    f"never received anything; sender reached seq {high}",
                )
            return
        # The obligation starts at the receiver's baseline: a receiver
        # whose first observation was seq k (it joined, or rejoined the
        # reachable world, mid-stream) owes itself k.. but not earlier
        # history — that is recovered at the application level (§5).
        base = tracker.first_seen
        gaps = [seq for seq in range(base, high + 1) if not tracker.has(seq)]
        if gaps:
            shown = ", ".join(str(s) for s in gaps[:8])
            more = f" (+{len(gaps) - 8} more)" if len(gaps) > 8 else ""
            self.record(
                "delivery", now, subject,
                f"missing seq {shown}{more} of {base}..{high} at end of run",
            )
        if recovery_failures:
            plural = "y" if recovery_failures == 1 else "ies"
            self.record(
                "delivery", now, subject,
                f"abandoned {recovery_failures} recover{plural}",
            )
