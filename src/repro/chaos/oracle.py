"""Runtime protocol-invariant oracle for simulated LBRM deployments.

:class:`ChaosOracle` attaches to a built
:class:`~repro.simnet.deploy.LbrmDeployment` and checks, while the
simulation runs and once more at the end, the receiver-reliability
invariants the paper's §2 argues for (DESIGN.md §7 catalogues them):

* **I1 — eventual gap-free delivery** (§2, §2.2.1): at the end of the
  run every receiver whose node is alive holds every sequence number
  from its join baseline (``tracker.first_seen``) to the sender's
  high-water mark, and never abandoned a recovery.
* **I2 — bounded sender silence** (§2.1): the gap between consecutive
  source transmissions (data, heartbeat, or retransmission) never
  exceeds a small multiple of the variable-heartbeat schedule's current
  interval — the MaxIT promise receivers size their watchdogs against.
* **I3 — log completeness** (§2.2.3): *safety*, checked continuously —
  the source never releases data beyond what a live log server holds
  contiguously; and *completeness*, checked at the end — live loggers
  hold the full stream up to the sender's high-water mark.
* **I4 — monotone promotion** (§2.2.3): a logger never leaves the
  PRIMARY role, a replica is promoted at most once, and successive
  promotions hand over at non-decreasing sequence numbers.

The judgement logic lives in the transport-agnostic
:class:`~repro.chaos.invariants.InvariantLedger`; this class is the
simulator adapter (its real-UDP twin is
:class:`~repro.chaos.live.LiveOracle`).  The oracle is read-only: it
chains (never replaces) the network observer, taps replica promotion
events, and sweeps deployment state on a periodic simulator event — a
run with the oracle attached is packet-for-packet identical to one
without.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chaos.invariants import SOURCE_TYPES, InvariantLedger, Violation
from repro.core.events import PrimaryFailover, PromotedToPrimary
from repro.core.logger import LogServer
from repro.core.packets import PacketType
from repro.simnet.deploy import LbrmDeployment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.controller import ChaosController
    from repro.core.packets import Packet

__all__ = ["ChaosOracle", "Violation"]


class ChaosOracle:
    """Continuous invariant checking for one simulated deployment.

    Parameters
    ----------
    deployment:
        The deployment to watch.  Attach **before** running.
    silence_slack:
        I2 multiplier on the expected heartbeat interval ("a small
        multiple (2 in our implementation)", §2.1.1).
    grace:
        Additive I2 allowance for propagation delay and clock skew.
    check_interval:
        Seconds between periodic sweeps.
    require_delivery / require_full_logs:
        Gate the end-of-run I1 / I3-completeness checks — directed
        tests that *intend* an unrecoverable world (e.g. every logger
        dead, no replicas) disable the checks that world must fail.
    """

    def __init__(
        self,
        deployment: LbrmDeployment,
        controller: "ChaosController | None" = None,
        *,
        silence_slack: float = 2.0,
        grace: float = 0.25,
        check_interval: float = 0.5,
        require_delivery: bool = True,
        require_full_logs: bool = True,
    ) -> None:
        self.deployment = deployment
        self.controller = controller
        self.ledger = InvariantLedger(
            deployment.spec.config.heartbeat,
            silence_slack=silence_slack,
            grace=grace,
            max_idle_time=deployment.spec.config.receiver.max_idle_time,
        )
        self._interval = check_interval
        self._require_delivery = require_delivery
        self._require_full_logs = require_full_logs
        self._installed = False
        self._finished = False

    @property
    def violations(self) -> list[Violation]:
        return self.ledger.violations

    # -- wiring ----------------------------------------------------------

    def install(self) -> None:
        """Attach taps and start sweeping.  Call before the run starts."""
        if self._installed:
            raise RuntimeError("oracle already installed")
        self._installed = True
        dep = self.deployment
        network = dep.network
        chained = network.observer
        network.observer = self._make_observer(chained)
        now = dep.sim.now
        for machine, _node in self._primary_capable():
            self.ledger.observe_role(machine.addr_token, machine.role, now)
        for node in dep.replica_nodes:
            self._hook_promotions(node)
        if dep.source_node is not None:
            self._hook_failovers(dep.source_node)
        dep.sim.schedule(now + self._interval, self._sweep)

    def _make_observer(self, chained):
        def observe(kind: str, packet: "Packet", src: str, dst: str, now: float) -> None:
            if chained is not None:
                chained(kind, packet, src, dst, now)
            if src == "source" and int(packet.TYPE) in SOURCE_TYPES:
                hb_index = packet.hb_index if int(packet.TYPE) == int(PacketType.HEARTBEAT) else 0
                self.ledger.on_source_tx(int(packet.TYPE), now, hb_index=hb_index)

        return observe

    def _hook_promotions(self, node) -> None:
        chained = node._on_event
        name = node.name

        def on_event(event, now: float) -> None:
            if isinstance(event, PromotedToPrimary):
                self._on_promotion(name, event.from_seq, now, event.log_epoch)
            if chained is not None:
                chained(event, now)

        node._on_event = on_event

    def _hook_failovers(self, node) -> None:
        chained = node._on_event

        def on_event(event, now: float) -> None:
            if isinstance(event, PrimaryFailover):
                self.ledger.on_failover(now, event.high_seq)
            if chained is not None:
                chained(event, now)

        node._on_event = on_event

    def _on_promotion(self, node_name: str, from_seq: int, now: float, epoch: int = 0) -> None:
        self.ledger.on_promotion(node_name, from_seq, now, epoch=epoch)

    # -- periodic sweep ----------------------------------------------------

    def _sweep(self) -> None:
        if self._finished:
            return
        now = self.deployment.sim.now
        self._check_silence(now)
        self._check_log_safety(now)
        self._check_roles(now)
        self._check_commit_point(now)
        self.deployment.sim.schedule(now + self._interval, self._sweep)

    def finish(self) -> list[Violation]:
        """Run the end-of-stream checks and stop sweeping."""
        self._finished = True
        now = self.deployment.sim.now
        self._check_silence(now)
        self._check_log_safety(now)
        self._check_roles(now)
        self._check_commit_point(now)
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

    # -- deployment state sweeps -------------------------------------------

    def _check_silence(self, now: float) -> None:
        source_node = self.deployment.source_node
        if source_node is None or not source_node.alive:
            self.ledger.reset_silence_clock(now)
            return
        self.ledger.check_silence(now)

    def _primary_capable(self) -> list[tuple[LogServer, object]]:
        dep = self.deployment
        pairs: list[tuple[LogServer, object]] = []
        if dep.primary is not None and dep.primary_node is not None:
            pairs.append((dep.primary, dep.primary_node))
        pairs.extend(zip(dep.replicas, dep.replica_nodes))
        return pairs

    def _check_log_safety(self, now: float) -> None:
        """Logs are durable in the paper's model (loggers spool to disk,
        §2.2.3 replicas protect against *total* loss), so a crashed or
        paused node's log still counts — what must never happen is the
        source discarding data that no log, live or recoverable, holds.
        """
        sender = self.deployment.sender
        if sender is None:
            return
        held = 0
        for machine, _node in self._primary_capable():
            held = max(held, machine.primary_seq)
        self.ledger.check_log_safety(now, sender.released_up_to, held)

    def _check_roles(self, now: float) -> None:
        for machine, _node in self._primary_capable():
            self.ledger.observe_role(machine.addr_token, machine.role, now)

    def _trusted_primary(self) -> LogServer | None:
        """The log machine the sender currently trusts (changes at failover)."""
        sender = self.deployment.sender
        if sender is None:
            return None
        current = sender.primary
        for machine, _node in self._primary_capable():
            if machine.addr_token == current:
                return machine
        return None

    def _check_commit_point(self, now: float) -> None:
        """I6: ratchet the observed commit point and hold the trusted
        primary to it.  Logs are durable (§2.2.3), so a crashed machine's
        prefix still counts — what must never happen is the group
        electing a primary whose log misses a committed packet."""
        sender = self.deployment.sender
        if sender is None:
            return
        self.ledger.on_commit_point(sender.released_up_to, now)
        trusted = self._trusted_primary()
        if trusted is None:
            return
        replication = trusted.replication
        if replication is not None and replication.members:
            self.ledger.on_commit_point(replication.commit_seq, now)
        self.ledger.check_committed_survival(now, trusted.addr_token, trusted.primary_seq)
        self.ledger.check_failover_stall(now, trusted.primary_seq)

    def _check_delivery(self, now: float) -> None:
        dep = self.deployment
        high = dep.sender.seq if dep.sender is not None else 0
        for receiver, node in zip(dep.receivers, dep.receiver_nodes):
            if not node.alive:
                continue  # receiver-reliability binds only live receivers
            self.ledger.check_delivery(
                now, node.name, receiver.tracker, high, receiver.stats["recovery_failures"]
            )

    def _check_log_completeness(self, now: float) -> None:
        dep = self.deployment
        sender = dep.sender
        if sender is None or sender.seq == 0:
            return
        high = sender.seq
        for machine, node in (dep.members[name] for name in dep.tree.top_down()):
            if not node.alive:
                continue
            self.ledger.check_log_completeness(now, node.name, machine.primary_seq, high)
        # The logger the sender currently trusts must cover everything
        # the source has discarded (else that data is gone for good).
        current = sender.primary
        for machine, node in self._primary_capable():
            if machine.addr_token != current:
                continue
            if node.alive:
                self.ledger.check_current_primary(
                    now, machine.addr_token, machine.primary_seq, sender.released_up_to
                )
