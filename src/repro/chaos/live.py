"""Protocol-invariant oracle for real-UDP LBRM clusters.

:class:`LiveOracle` is the asyncio twin of
:class:`~repro.chaos.oracle.ChaosOracle`: it attaches to a started
:class:`~repro.aio.cluster.AioCluster` and grades the run against the
same receiver-reliability invariants I1–I4 (DESIGN.md §7), using the
same judgement code (:class:`~repro.chaos.invariants.InvariantLedger`).
A conformance result from the live path therefore means exactly what
the simulator's does — this is what "real-UDP parity" is graded by.

Where the simulator oracle taps the network observer, the live oracle
taps node hooks:

* I2's silence clock comes from the sender node's ``on_send`` hook
  (every outbound DATA/HEARTBEAT/RETRANS timestamps source liveness);
* I4's promotion events come from the replica nodes' ``on_event`` hooks;
* I1/I3 sweeps read machine state directly (the machines are in-process
  even though the packets cross real sockets), scheduled with
  ``loop.call_later`` instead of simulator events.

Nodes that were :meth:`~repro.aio.node.AioNode.close`\\ d mid-run are the
live equivalent of crashed simulator nodes: exempt from I1/I3 liveness
obligations, while their (durable, §2.2.3) logs still count for I3
safety.
"""

from __future__ import annotations

import asyncio

from repro.aio.cluster import AioCluster
from repro.aio.node import AioNode
from repro.chaos.invariants import SOURCE_TYPES, InvariantLedger, Violation
from repro.core.actions import Action, SendMulticast, SendUnicast
from repro.core.events import Event, PrimaryFailover, PromotedToPrimary
from repro.core.logger import LogServer
from repro.core.packets import PacketType

__all__ = ["LiveOracle"]


class LiveOracle:
    """Continuous invariant checking for one real-UDP cluster.

    Parameters mirror :class:`~repro.chaos.oracle.ChaosOracle`; the
    default ``grace`` is wider because real sockets and the asyncio
    scheduler add latency the simulator does not have.
    """

    def __init__(
        self,
        cluster: AioCluster,
        *,
        silence_slack: float = 2.0,
        grace: float = 0.5,
        check_interval: float = 0.25,
        require_delivery: bool = True,
        require_full_logs: bool = True,
    ) -> None:
        self.cluster = cluster
        self.ledger = InvariantLedger(
            cluster.config.heartbeat,
            silence_slack=silence_slack,
            grace=grace,
            max_idle_time=cluster.config.receiver.max_idle_time,
        )
        self._interval = check_interval
        self._require_delivery = require_delivery
        self._require_full_logs = require_full_logs
        self._installed = False
        self._finished = False
        self._sweep_handle: asyncio.TimerHandle | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def violations(self) -> list[Violation]:
        return self.ledger.violations

    # -- wiring ----------------------------------------------------------

    def install(self) -> None:
        """Attach taps and start sweeping.  Call after ``cluster.start()``."""
        if self._installed:
            raise RuntimeError("oracle already installed")
        if self.cluster.sender_node is None:
            raise RuntimeError("cluster not started")
        self._installed = True
        self._loop = asyncio.get_running_loop()
        self._hook_sender(self.cluster.sender_node)
        now = self._loop.time()
        for machine, node in self._primary_capable():
            self.ledger.observe_role(node.token, machine.role, now)
        for node in self.cluster.replica_nodes:
            self._hook_promotions(node)
        self._sweep_handle = self._loop.call_later(self._interval, self._sweep)

    def _hook_sender(self, node: AioNode) -> None:
        chained = node.on_send
        chained_event = node.on_event

        def on_send(action: Action, now: float) -> None:
            if chained is not None:
                chained(action, now)
            if isinstance(action, (SendMulticast, SendUnicast)):
                packet = action.packet
                ptype = int(packet.TYPE)
                if ptype in SOURCE_TYPES:
                    hb_index = (
                        packet.hb_index if ptype == int(PacketType.HEARTBEAT) else 0
                    )
                    self.ledger.on_source_tx(ptype, now, hb_index=hb_index)

        def on_event(event: Event, now: float) -> None:
            if isinstance(event, PrimaryFailover):
                self.ledger.on_failover(now, event.high_seq)
            if chained_event is not None:
                chained_event(event, now)

        node.on_send = on_send
        node.on_event = on_event

    def _hook_promotions(self, node: AioNode) -> None:
        chained = node.on_event
        subject = node.token

        def on_event(event: Event, now: float) -> None:
            if isinstance(event, PromotedToPrimary):
                self.ledger.on_promotion(subject, event.from_seq, now, epoch=event.log_epoch)
            if chained is not None:
                chained(event, now)

        node.on_event = on_event

    # -- periodic sweep ----------------------------------------------------

    def _sweep(self) -> None:
        if self._finished or self._loop is None:
            return
        now = self._loop.time()
        self._check_silence(now)
        self._check_log_safety(now)
        self._check_roles(now)
        self._check_commit_point(now)
        self._sweep_handle = self._loop.call_later(self._interval, self._sweep)

    def finish(self) -> list[Violation]:
        """Run the end-of-stream checks and stop sweeping."""
        self._finished = True
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None
        assert self._loop is not None
        now = self._loop.time()
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

    # -- cluster state sweeps -----------------------------------------------

    def _primary_capable(self) -> list[tuple[LogServer, AioNode]]:
        cluster = self.cluster
        pairs: list[tuple[LogServer, AioNode]] = []
        if cluster.primary is not None and cluster.primary_node is not None:
            pairs.append((cluster.primary, cluster.primary_node))
        pairs.extend(zip(cluster.replicas, cluster.replica_nodes))
        return pairs

    def _check_silence(self, now: float) -> None:
        node = self.cluster.sender_node
        if node is None or node.closed:
            self.ledger.reset_silence_clock(now)
            return
        self.ledger.check_silence(now)

    def _check_log_safety(self, now: float) -> None:
        sender = self.cluster.sender
        if sender is None:
            return
        held = 0
        for machine, _node in self._primary_capable():
            held = max(held, machine.primary_seq)
        self.ledger.check_log_safety(now, sender.released_up_to, held)

    def _check_roles(self, now: float) -> None:
        for machine, node in self._primary_capable():
            self.ledger.observe_role(node.token, machine.role, now)

    def _check_commit_point(self, now: float) -> None:
        """I6: ratchet the observed commit point and hold the trusted
        primary to it (crashed machines' logs are durable and still count)."""
        sender = self.cluster.sender
        if sender is None:
            return
        self.ledger.on_commit_point(sender.released_up_to, now)
        current = sender.primary
        for machine, node in self._primary_capable():
            if node.address != current:
                continue
            replication = machine.replication
            if replication is not None and replication.members:
                self.ledger.on_commit_point(replication.commit_seq, now)
            self.ledger.check_committed_survival(now, node.token, machine.primary_seq)
            self.ledger.check_failover_stall(now, machine.primary_seq)

    def _check_delivery(self, now: float) -> None:
        cluster = self.cluster
        high = cluster.sender.seq if cluster.sender is not None else 0
        for i, (receiver, node) in enumerate(zip(cluster.receivers, cluster.receiver_nodes)):
            if node.closed:
                continue  # receiver-reliability binds only live receivers
            self.ledger.check_delivery(
                now, f"rx{i}({node.token})", receiver.tracker, high,
                receiver.stats["recovery_failures"],
            )

    def _check_log_completeness(self, now: float) -> None:
        cluster = self.cluster
        sender = cluster.sender
        if sender is None or sender.seq == 0:
            return
        high = sender.seq
        for machine, node in (cluster.members[name] for name in cluster.tree.top_down()):
            if node.closed:
                continue
            self.ledger.check_log_completeness(now, node.token, machine.primary_seq, high)
        current = sender.primary
        for machine, node in self._primary_capable():
            if node.address != current:
                continue
            if not node.closed:
                self.ledger.check_current_primary(
                    now, node.token, machine.primary_seq, sender.released_up_to
                )
