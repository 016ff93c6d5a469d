"""Simulator adapter for the k-level repair tree (DESIGN §11).

:class:`HierarchyRuntime` connects a :class:`~repro.core.hierarchy.TreeManager`
to a built :class:`~repro.simnet.deploy.TreeDeployment`:

* it **measures**: a read-only tap installed as the network observer
  (in front of any tap installed before it; the packet counts are the
  network's own) pairs each logger's upstream NACK with the repair that
  answers it, feeding per-link RTT samples into the manager's
  :class:`LinkEstimate`s, and counts re-sent requests as loss;
* it **re-scores** the tree once per ``rescore_interval`` (one heartbeat
  epoch by default) against the current live set and each logger's
  outstanding-upstream-repair queue depth (saturation);
* it **applies** moves: a re-parented logger gets ``set_parent`` (its
  pending upstream retries follow automatically — the retry path reads
  the current parent), and every receiver whose escalation chain crossed
  the moved edge gets the recomputed chain.

The tap is read-only and the rescore pass is a deterministic function of
simulated state, so a run with the runtime installed on a healthy tree
is packet-for-packet identical from run to run — the chaos campaign's
same-seed diff leans on that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.hierarchy import Reparent, TreeManager
from repro.core.packets import NackPacket, RetransPacket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.receiver import LbrmReceiver
    from repro.simnet.deploy import TreeDeployment

__all__ = ["HierarchyRuntime"]


class HierarchyRuntime:
    """Live tree maintenance for one simulated deployment."""

    def __init__(
        self,
        deployment: "TreeDeployment",
        *,
        fanout: int,
        site_of: dict[str, str],
        receivers_by_leaf: dict[str, list["LbrmReceiver"]],
    ) -> None:
        self.deployment = deployment
        self._receivers_by_leaf = receivers_by_leaf
        spec = deployment.spec
        tree = deployment.tree
        self.config = spec.config.hierarchy
        from repro.simnet.deploy import LAN_LATENCY  # deploy imports this module

        lan = 2.0 * LAN_LATENCY
        wan = 2.0 * spec.wan_one_way()

        def seed_cost(child: str, parent: str) -> float:
            # Static-topology RTT prior: measured samples take over as
            # soon as the first repair round trip completes.
            if site_of.get(child) == site_of.get(parent, "site0"):
                return lan
            return wan

        self.manager = TreeManager(tree, fanout=fanout, seed_cost=seed_cost)
        # name -> (machine, node) for every logger below the root.
        self._loggers = {name: deployment.members[name] for name in tree.top_down()}
        # Last chain pushed to each leaf's receivers (change detection).
        self._chains: dict[str, tuple[str, ...]] = {
            leaf: tree.chain(leaf) for leaf in receivers_by_leaf
        }
        self._installed = False

    # -- wiring ------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> None:
        """Attach the measurement tap and start the rescore cadence."""
        if self._installed:
            raise RuntimeError("hierarchy runtime already installed")
        self._installed = True
        network = self.deployment.network
        chained = network.observer
        network.observer = self._make_observer(chained)
        sim = self.deployment.sim
        sim.schedule(sim.now + self.config.rescore_interval, self._tick)

    def _make_observer(self, chained):
        loggers = self._loggers
        manager = self.manager
        tree = manager.tree

        def observe(kind: str, packet, src: str, hosts, now: float) -> None:
            if chained is not None:
                chained(kind, packet, src, hosts, now)
            if kind != "rx":
                return
            t = type(packet)
            if t is NackPacket:
                # An upstream request: only the watched child -> current
                # parent edges count (receiver NACKs share the type but
                # never have a logger as src).
                if src in loggers:
                    parent = tree.parent(src)
                    for host in hosts:
                        if host.name == parent:
                            for seq in packet.seqs:
                                if manager.has_outstanding(src, seq):
                                    manager.note_retry(src, (seq,))
                                else:
                                    manager.note_request(src, (seq,), now)
            elif t is RetransPacket:
                for host in hosts:
                    if host.name in loggers:
                        manager.note_repair(host.name, packet.seq, now)

        return observe

    # -- periodic rescore --------------------------------------------------

    def _tick(self) -> None:
        now = self.deployment.sim.now
        self.rescore_now()
        self.deployment.sim.schedule(now + self.config.rescore_interval, self._tick)

    def live_set(self) -> frozenset[str]:
        live = {name for name, (_m, node) in self._loggers.items() if node.alive}
        primary_node = self.deployment.primary_node
        if primary_node is not None and primary_node.alive:
            live.add(self.manager.tree.root)
        return frozenset(live)

    def saturated_set(self) -> frozenset[str]:
        threshold = self.config.saturation_outstanding
        return frozenset(
            name
            for name, (machine, node) in self._loggers.items()
            if node.alive and machine.upstream_outstanding >= threshold
        )

    def rescore_now(self) -> list[Reparent]:
        """One re-scoring pass; applies and returns the moves."""
        moves = self.manager.rescore(
            self.deployment.sim.now,
            live=self.live_set(),
            saturated=self.saturated_set(),
        )
        if moves:
            self._apply_moves(moves)
        return moves

    def force_reparent(self, child: str) -> Reparent | None:
        """Chaos hook: mid-epoch tree mutation (move one live edge)."""
        move = self.manager.force_reparent(
            child, live=self.live_set(), now=self.deployment.sim.now
        )
        if move is not None:
            self._apply_moves([move])
        return move

    def _apply_moves(self, moves: list[Reparent]) -> None:
        for move in moves:
            entry = self._loggers.get(move.child)
            if entry is not None:
                entry[0].set_parent(move.new_parent)
        # Any move can change chains for a whole subtree of leaves;
        # recompute all leaf chains and push only the ones that changed.
        tree = self.manager.tree
        for leaf, receivers in self._receivers_by_leaf.items():
            chain = tree.chain(leaf)
            if chain != self._chains.get(leaf):
                self._chains[leaf] = chain
                for receiver in receivers:
                    receiver.set_logger_chain(chain)

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic snapshot for chaos digests and reports."""
        return {
            "tree": self.manager.tree.to_dict(),
            "moves": [m.to_dict() for m in self.manager.moves],
            "makespan": round(self.manager.makespan(), 6),
            "stats": dict(sorted(self.manager.stats.items())),
        }
