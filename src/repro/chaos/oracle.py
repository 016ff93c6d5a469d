"""Runtime protocol-invariant oracle for LBRM deployments, simulated or live.

:class:`ChaosOracle` attaches to a simulated
:class:`~repro.simnet.deploy.LbrmDeployment` or a started real-UDP
:class:`~repro.aio.cluster.AioCluster` and checks, while the run goes
and once more at the end, the receiver-reliability invariants the
paper's §2 argues for (DESIGN.md §7 catalogues them):

* **I1 — eventual gap-free delivery** (§2, §2.2.1): at the end of the
  run every receiver whose node is alive holds every sequence number
  from its join baseline (``tracker.first_seen``) to the sender's
  high-water mark, and never abandoned a recovery.
* **I2 — bounded sender silence** (§2.1): the gap between consecutive
  source transmissions (data, heartbeat, or retransmission) never
  exceeds a small multiple of the variable-heartbeat schedule's current
  interval — the MaxIT promise receivers size their watchdogs against.
  Transmissions are observed where §2.1 defines them: at the source's
  sends, not at arrivals.
* **I3 — log completeness** (§2.2.3): *safety*, checked continuously —
  the source never releases data beyond what a live log server holds
  contiguously; and *completeness*, checked at the end — live loggers
  hold the full stream up to the sender's high-water mark.
* **I4 — monotone promotion** (§2.2.3): a logger never leaves the
  PRIMARY role, a replica is promoted at most once, and successive
  promotions hand over at non-decreasing sequence numbers.

The judgement logic lives in
:class:`~repro.chaos.invariants.InvariantLedger`.  This class reads
only what both runtimes expose: ``now``, ``call_later(delay, fn)``,
``config``, the machines and their nodes (``source_node``,
``primary_node``, ``replica_nodes``, ``receiver_nodes``, ``members``
by tree name), and per node ``name``, ``address``, ``alive`` and the
``on_send``/``on_event`` hooks.  The oracle is read-only: it chains
(never replaces) those hooks and sweeps on the runtime's own clock — a
run with the oracle attached is packet-for-packet identical to one
without.  Closed UDP nodes are the live equivalent of crashed simulated
ones: exempt from I1/I3 liveness obligations, while their (durable,
§2.2.3) logs still count for I3 safety.
"""

from __future__ import annotations

from repro.chaos.invariants import SOURCE_TYPES, InvariantLedger, Violation
from repro.core.events import PrimaryFailover, PromotedToPrimary
from repro.core.packets import PacketType

__all__ = ["ChaosOracle", "Violation"]

_HEARTBEAT = int(PacketType.HEARTBEAT)


def _chained(hook, fn):
    """A hook calling ``fn``, then whatever ``hook`` (if set) called."""

    def both(item, now: float) -> None:
        fn(item, now)
        if hook is not None:
            hook(item, now)

    return both


class ChaosOracle:
    """Continuous invariant checking for one deployment or cluster.

    Parameters
    ----------
    runtime:
        The :class:`~repro.simnet.deploy.LbrmDeployment` or started
        :class:`~repro.aio.cluster.AioCluster` to watch.  Attach before
        the stream starts.
    grace:
        Additive I2 allowance for propagation delay, clock skew and
        scheduler latency; defaults to the runtime's ``ORACLE_GRACE``.
    check_interval:
        Seconds between periodic sweeps; defaults to the runtime's
        ``ORACLE_INTERVAL``.
    require_delivery / require_full_logs:
        Gate the end-of-run I1 / I3-completeness checks — directed
        tests that *intend* an unrecoverable world (e.g. every logger
        dead, no replicas) disable the checks that world must fail.
    """

    def __init__(
        self,
        runtime,
        *,
        grace: float | None = None,
        check_interval: float | None = None,
        require_delivery: bool = True,
        require_full_logs: bool = True,
    ) -> None:
        self.runtime = runtime
        config = runtime.config
        self.ledger = InvariantLedger(
            config.heartbeat,
            grace=runtime.ORACLE_GRACE if grace is None else grace,
            max_idle_time=config.receiver.max_idle_time,
        )
        self._interval = runtime.ORACLE_INTERVAL if check_interval is None else check_interval
        self._require_delivery = require_delivery
        self._require_full_logs = require_full_logs
        self._installed = False
        self._finished = False

    @property
    def violations(self) -> list[Violation]:
        return self.ledger.violations

    # -- wiring ----------------------------------------------------------

    def install(self) -> None:
        """Attach taps and start sweeping."""
        if self._installed:
            raise RuntimeError("oracle already installed")
        rt = self.runtime
        source = rt.source_node
        if source is None:
            raise RuntimeError("runtime not started: no source node to tap")
        self._installed = True
        source.on_send = _chained(source.on_send, self._on_source_send)
        source.on_event = _chained(source.on_event, self._on_source_event)
        for machine, node in zip(rt.replicas, rt.replica_nodes):
            node.on_event = _chained(node.on_event, self._promotion_tap(machine.addr_token))
        self._check_roles(rt.now)
        rt.call_later(self._interval, self._sweep)

    def _on_source_send(self, action, now: float) -> None:
        packet = action.packet
        ptype = int(packet.TYPE)
        if ptype in SOURCE_TYPES:
            hb_index = packet.hb_index if ptype == _HEARTBEAT else 0
            self.ledger.on_source_tx(ptype, now, hb_index=hb_index)

    def _on_source_event(self, event, now: float) -> None:
        if isinstance(event, PrimaryFailover):
            self.ledger.on_failover(now, event.high_seq)

    def _promotion_tap(self, subject: str):
        def on_event(event, now: float) -> None:
            if isinstance(event, PromotedToPrimary):
                self.ledger.on_promotion(subject, event.from_seq, now, epoch=event.log_epoch)

        return on_event

    # -- periodic sweep ----------------------------------------------------

    def _sweep(self) -> None:
        if self._finished:
            return
        self._check_running(self.runtime.now)
        self.runtime.call_later(self._interval, self._sweep)

    def _check_running(self, now: float) -> None:
        self._check_silence(now)
        self._check_log_safety(now)
        self._check_roles(now)
        self._check_commit_point(now)

    def finish(self) -> list[Violation]:
        """Run the end-of-stream checks and stop sweeping."""
        self._finished = True
        now = self.runtime.now
        self._check_running(now)
        if self._require_delivery:
            self._check_delivery(now)
        if self._require_full_logs:
            self._check_log_completeness(now)
        return list(self.violations)

    def assert_ok(self) -> None:
        """``finish()`` and raise AssertionError on any violation."""
        violations = self.finish()
        if violations:
            lines = "\n".join(
                f"  [{v.invariant}] t={v.time:.3f} {v.subject}: {v.detail}" for v in violations
            )
            raise AssertionError(f"{len(violations)} invariant violation(s):\n{lines}")

    # -- runtime state sweeps ----------------------------------------------

    def _check_silence(self, now: float) -> None:
        if not self.runtime.source_node.alive:
            self.ledger.reset_silence_clock(now)
            return
        self.ledger.check_silence(now)

    def _primary_capable(self) -> list:
        rt = self.runtime
        return [(rt.primary, rt.primary_node), *zip(rt.replicas, rt.replica_nodes)]

    def _check_log_safety(self, now: float) -> None:
        """Logs are durable in the paper's model (loggers spool to disk,
        §2.2.3 replicas protect against *total* loss), so a crashed or
        paused node's log still counts — what must never happen is the
        source discarding data that no log, live or recoverable, holds.
        """
        held = max(machine.primary_seq for machine, _node in self._primary_capable())
        self.ledger.check_log_safety(now, self.runtime.sender.released_up_to, held)

    def _check_roles(self, now: float) -> None:
        for machine, _node in self._primary_capable():
            self.ledger.observe_role(machine.addr_token, machine.role, now)

    def _trusted_primary(self):
        """The log the sender currently trusts (changes at failover)."""
        current = self.runtime.sender.primary
        for machine, node in self._primary_capable():
            if node.address == current:
                return machine, node
        return None, None

    def _check_commit_point(self, now: float) -> None:
        """I6: ratchet the observed commit point and hold the trusted
        primary to it.  Logs are durable (§2.2.3), so a crashed machine's
        prefix still counts — what must never happen is the group
        electing a primary whose log misses a committed packet."""
        self.ledger.on_commit_point(self.runtime.sender.released_up_to, now)
        trusted, _node = self._trusted_primary()
        if trusted is None:
            return
        replication = trusted.replication
        if replication is not None and replication.members:
            self.ledger.on_commit_point(replication.commit_seq, now)
        self.ledger.check_committed_survival(now, trusted.addr_token, trusted.primary_seq)
        self.ledger.check_failover_stall(now, trusted.primary_seq)

    def _check_delivery(self, now: float) -> None:
        rt = self.runtime
        high = rt.sender.seq
        for receiver, node in zip(rt.receivers, rt.receiver_nodes):
            if not node.alive:
                continue  # receiver-reliability binds only live receivers
            self.ledger.check_delivery(
                now, node.name, receiver.tracker, high, receiver.stats["recovery_failures"]
            )

    def _check_log_completeness(self, now: float) -> None:
        rt = self.runtime
        sender = rt.sender
        if sender.seq == 0:
            return
        for machine, node in (rt.members[name] for name in rt.tree.top_down()):
            if node.alive:
                self.ledger.check_log_completeness(now, node.name, machine.primary_seq, sender.seq)
        # The logger the sender currently trusts must cover everything
        # the source has discarded (else that data is gone for good).
        trusted, node = self._trusted_primary()
        if trusted is not None and node.alive:
            self.ledger.check_current_primary(
                now, trusted.addr_token, trusted.primary_seq, sender.released_up_to
            )
