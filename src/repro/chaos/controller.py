"""Compiling a :class:`FaultSchedule` onto a running deployment.

:class:`ChaosController` is the bridge between the inert schedule and a
runtime, simulated (:class:`~repro.simnet.deploy.LbrmDeployment`) or
real-UDP (:class:`~repro.aio.cluster.AioCluster`).  It schedules through
the surface :class:`~repro.chaos.oracle.ChaosOracle` reads (``now``,
``call_later``), so fault times count from :meth:`~ChaosController.install`:

* node faults call the :class:`~repro.core.node.MachineNode` fault
  methods of ``runtime.node(target)`` (``clock_skew`` for ``skew``);
* partitions become :class:`~repro.simnet.loss.BurstLoss` windows
  layered over the site's existing tail-circuit loss models, and packet
  faults one :class:`~repro.chaos.schedule.PacketChaos` installed as the
  network's ``chaos`` hook — both need a simulated ``network``, and a
  runtime without one refuses them with :class:`~repro.core.errors.ConfigError`;
* tree faults become calls into the deployment's
  :class:`~repro.simnet.hierarchy.HierarchyRuntime` — a mid-epoch
  ``reparent`` moves the target logger to its best live alternative
  parent (a no-op, uncounted, without a hierarchy or when no
  alternative exists, so the same schedule stays valid everywhere).

Every applied fault bumps the ``chaos.faults_injected`` counter and
lands in :attr:`applied`.
"""

from __future__ import annotations

from functools import partial

from repro import obs
from repro.chaos.schedule import PACKET_KINDS, SITE_KINDS, Fault, FaultSchedule
from repro.core.errors import ConfigError
from repro.simnet.loss import BurstLoss

__all__ = ["ChaosController"]


class ChaosController:
    """Applies one schedule to one runtime (build once, install once)."""

    def __init__(self, runtime, schedule: FaultSchedule) -> None:
        self.runtime = runtime
        self.schedule = schedule
        self.faults_injected = 0
        # (runtime time, fault) in application order — the campaign
        # report's ground truth for what actually happened.
        self.applied: list[tuple[float, Fault]] = []
        self._installed = False
        self._obs_faults = obs.registry().counter("chaos.faults_injected")

    def install(self) -> None:
        """Arm the schedule: a fault at ``at`` fires ``at`` seconds from
        now.  Call after the runtime is built; on a simulated one at time
        0, since partition windows and packet faults read its clock."""
        if self._installed:
            raise RuntimeError("schedule already installed")
        network = getattr(self.runtime, "network", None)
        if network is None and self.schedule.of_kinds(SITE_KINDS | PACKET_KINDS):
            raise ConfigError("site and packet faults need a simulated network; this runtime has none")
        self._installed = True
        later = self.runtime.call_later
        for fault in self.schedule.node_faults:
            later(fault.at, partial(self._apply_node_fault, fault))
        for fault in self.schedule.tree_faults:
            later(fault.at, partial(self._apply_tree_fault, fault))
        for site_name, windows in self.schedule.partition_windows().items():
            # Both directions die: that is what a severed tail circuit
            # does.  BurstLoss keeps the link's previous model as its
            # base, so a partition composes with background loss.
            site = network.site(site_name)
            finite = [(s, min(e, 1e18)) for s, e in windows]
            site.tail_down.loss = BurstLoss(finite, base=site.tail_down.loss)
            site.tail_up.loss = BurstLoss(finite, base=site.tail_up.loss)
        chaos = self.schedule.packet_chaos()
        if chaos is not None:
            network.chaos = chaos
        # Windows and the mangler are passive; mark each window opening as
        # the injection moment so counters line up with the schedule.
        for fault in self.schedule.of_kinds({"partition"}) + self.schedule.packet_faults:
            later(fault.at, partial(self._note, fault))

    # -- application ----------------------------------------------------

    def _apply_node_fault(self, fault: Fault) -> None:
        node = self.runtime.node(fault.target)
        if fault.kind == "skew":
            node.clock_skew = fault.amount
        else:  # crash, restart, pause, resume: the node method of that name
            getattr(node, fault.kind)()
        self._note(fault)

    def _apply_tree_fault(self, fault: Fault) -> None:
        hierarchy = getattr(self.runtime, "hierarchy", None)  # None: no tree to mutate
        if hierarchy is not None and hierarchy.force_reparent(fault.target) is not None:
            self._note(fault)

    def _note(self, fault: Fault) -> None:
        self.faults_injected += 1
        self._obs_faults.inc()
        self.applied.append((self.runtime.now, fault))
