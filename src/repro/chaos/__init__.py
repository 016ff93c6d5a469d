"""repro.chaos — declarative fault injection and protocol invariants.

LBRM's headline claim is receiver-side reliability *under failure*
(§2.1 MaxIT silence bound, §2.2.1 local recovery, §2.2.3 primary
failover).  This package turns the ad-hoc fault code that used to live
inside individual tests into one reusable layer:

* :mod:`repro.chaos.schedule` — :class:`Fault` / :class:`FaultSchedule`,
  a declarative, serializable description of *what goes wrong when*
  (crash/restart/pause/resume nodes, skew clocks, partition/heal sites,
  duplicate/corrupt/reorder packets), composing with the existing
  :mod:`repro.simnet.loss` models.
* :mod:`repro.chaos.controller` — :class:`ChaosController`, which
  compiles a schedule onto a built :class:`~repro.simnet.deploy.LbrmDeployment`.
* :mod:`repro.chaos.oracle` — :class:`ChaosOracle`, a runtime checker
  for the paper's receiver-reliability invariants (see DESIGN.md §7).
* :mod:`repro.chaos.campaign` — the randomized conformance campaign
  behind ``repro chaos``: seeded schedule sampling, reproducer seeds
  and schedule minimization on violation; one loop for every campaign.
* :mod:`repro.chaos.hierarchy` — the same campaign on k-level repair
  trees behind ``repro hierarchy-chaos``: tiers and a sampler of hub
  crashes and mid-epoch ``reparent`` mutations, with digests that fold
  in the tree surgery (DESIGN §11).
* :mod:`repro.chaos.invariants` — :class:`InvariantLedger`, the
  transport-agnostic judgement shared by both oracles.
* :mod:`repro.chaos.live` — :class:`LiveOracle`, the same invariants
  checked against a real-UDP :class:`~repro.aio.cluster.AioCluster`.
* :mod:`repro.chaos.sweep` — the exhaustive crash-point failover sweep
  behind ``repro failover-sweep``: enumerate every distinct schedule
  point, crash the primary at each, grade every replay.
"""

from repro.chaos.campaign import CHAOS, run_campaign, sample_schedule
from repro.chaos.controller import ChaosController
from repro.chaos.hierarchy import HIERARCHY_CHAOS, sample_hierarchy_schedule
from repro.chaos.invariants import InvariantLedger, Violation
from repro.chaos.live import LiveOracle
from repro.chaos.oracle import ChaosOracle
from repro.chaos.schedule import Fault, FaultSchedule, PacketChaos
from repro.chaos.sweep import enumerate_crash_points, run_crash_case, run_sweep_campaign

__all__ = [
    "CHAOS",
    "HIERARCHY_CHAOS",
    "Fault",
    "FaultSchedule",
    "PacketChaos",
    "ChaosController",
    "ChaosOracle",
    "InvariantLedger",
    "LiveOracle",
    "Violation",
    "enumerate_crash_points",
    "run_campaign",
    "run_crash_case",
    "run_sweep_campaign",
    "sample_hierarchy_schedule",
    "sample_schedule",
]
