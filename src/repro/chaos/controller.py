"""Compiling a :class:`FaultSchedule` onto a built deployment.

:class:`ChaosController` is the bridge between the inert schedule and
the running simulation:

* node faults become simulator events calling the :class:`SimNode`
  fault hooks (``crash``/``restart``/``pause``/``resume``/clock skew);
* partitions become :class:`~repro.simnet.loss.BurstLoss` windows
  layered over the site's existing tail-circuit loss models;
* packet faults become one :class:`~repro.chaos.schedule.PacketChaos`
  installed as the network's ``chaos`` hook;
* tree faults become calls into the deployment's
  :class:`~repro.simnet.hierarchy.HierarchyRuntime` — a mid-epoch
  ``reparent`` moves the target logger to its best live alternative
  parent (a no-op, uncounted, on flat deployments or when no
  alternative exists, so the same schedule stays valid everywhere).

The controller also keeps the bookkeeping the oracle and the campaign
read back: every applied fault bumps the ``chaos.faults_injected``
counter and lands in :attr:`applied`.
"""

from __future__ import annotations

from repro import obs
from repro.chaos.schedule import Fault, FaultSchedule
from repro.simnet.deploy import LbrmDeployment
from repro.simnet.loss import BurstLoss
from repro.simnet.node import SimNode

__all__ = ["ChaosController"]


class ChaosController:
    """Applies one schedule to one deployment (build once, install once)."""

    def __init__(self, deployment: LbrmDeployment, schedule: FaultSchedule) -> None:
        self.deployment = deployment
        self.schedule = schedule
        self.faults_injected = 0
        # (sim time, fault) in application order — the campaign report's
        # ground truth for what actually happened.
        self.applied: list[tuple[float, Fault]] = []
        self._installed = False
        self._obs_faults = obs.registry().counter("chaos.faults_injected")

    def install(self) -> None:
        """Arm the schedule.  Call after the deployment is built and
        before the simulation runs past the earliest fault time."""
        if self._installed:
            raise RuntimeError("schedule already installed")
        self._installed = True
        sim = self.deployment.sim
        for fault in self.schedule.node_faults:
            sim.schedule(fault.at, self._apply_node_fault, fault)
        for fault in self.schedule.tree_faults:
            sim.schedule(fault.at, self._apply_tree_fault, fault)
        for site_name, windows in self.schedule.partition_windows().items():
            self._install_partition(site_name, windows)
        chaos = self.schedule.packet_chaos()
        if chaos is not None:
            self.deployment.network.chaos = chaos
            for fault in self.schedule.packet_faults:
                # The mangler is passive; mark the window opening as the
                # injection moment so counters line up with the schedule.
                sim.schedule(fault.at, self._note, fault)

    # -- application ----------------------------------------------------

    def _apply_node_fault(self, fault: Fault) -> None:
        node = self.deployment.node(fault.target)
        if fault.kind == "skew":
            self._apply_skew(node, fault.amount)
        else:  # crash, restart, pause, resume: the SimNode hook of that name
            getattr(node, fault.kind)()
        self._note(fault)

    def _apply_tree_fault(self, fault: Fault) -> None:
        hierarchy = self.deployment.hierarchy
        if hierarchy is None:
            return  # flat deployment: no tree to mutate
        move = hierarchy.force_reparent(fault.target)
        if move is not None:
            self._note(fault)

    def _apply_skew(self, node: SimNode, amount: float) -> None:
        node.clock_skew = amount
        # Pending wakeups were converted with the old skew; re-arm so
        # machines fire at their deadlines under the new clock.
        if not node.crashed:
            node._reschedule()

    def _install_partition(self, site_name: str, windows: list[tuple[float, float]]) -> None:
        site = self.deployment.network.site(site_name)
        finite = [(s, e if e != float("inf") else 1e18) for s, e in windows]
        # Both directions die: that is what a severed tail circuit does.
        # BurstLoss keeps the link's previous model as its base, so a
        # partition composes with background loss instead of replacing
        # it.
        site.tail_down.loss = BurstLoss(finite, base=site.tail_down.loss)
        site.tail_up.loss = BurstLoss(finite, base=site.tail_up.loss)
        sim = self.deployment.sim
        for start, _end in windows:
            fault = next(
                f for f in self.schedule.faults if f.kind == "partition"
                and f.target == site_name and f.at == start
            )
            sim.schedule(start, self._note, fault)

    def _note(self, fault: Fault) -> None:
        self.faults_injected += 1
        self._obs_faults.inc()
        self.applied.append((self.deployment.sim.now, fault))
