"""The k-level hierarchy chaos campaign behind ``repro hierarchy-chaos``.

Same loop, oracle and report as :mod:`repro.chaos.campaign` — this
module is only the campaign's data — aimed at deep repair
trees (DESIGN §11): every case builds a ``depth >= 3`` deployment whose
interior hubs sit *between* the site loggers and the primary, and the
fault sampler leans on the tree — crash-and-restart a hub, crash one
for good mid-stream, or inject a mid-epoch ``reparent`` mutation — on
top of the usual receiver/site-logger/partition noise.

The oracle contract is unchanged: the I1–I6 invariants must hold under
every sampled schedule.  The digest additionally folds in the hierarchy
snapshot (final parent map, every applied move, manager counters), so a
same-seed rerun must repeat not just what the receivers got but the
exact sequence of tree surgery that got them there.

Recoverable by construction: the source and the primary stay alive, at
most one *permanent* hub crash per schedule (its subtree must re-parent
around it — that is the scenario under test, ISSUE 10), and every other
disturbance heals inside the drain window's retry budgets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.chaos.campaign import Campaign, CampaignShape, blip
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.hierarchy import interior_name, plan_level_sizes
from repro.simnet.deploy import DeploymentSpec

__all__ = ["HierarchyShape", "TIERS", "sample_hierarchy_schedule", "HIERARCHY_CHAOS"]


@dataclass(frozen=True)
class HierarchyShape(CampaignShape):
    """A campaign tier on a deep tree (same retry budgets as the flat one)."""

    tag: str = "hchaos"

    def hubs(self) -> list[str]:
        """Interior-logger names this shape's deployment will build."""
        spec = self.spec
        sizes = plan_level_sizes(spec.n_sites, spec.depth, spec.fanout)
        return [
            interior_name(level, index)
            for level in sorted(sizes)
            for index in range(sizes[level])
        ]


TIERS: dict[str, HierarchyShape] = {
    "quick": HierarchyShape(runs=3, packets=8, spec=DeploymentSpec(
        n_sites=6, receivers_per_site=1, n_replicas=1, depth=3, fanout=3)),
    "full": HierarchyShape(runs=6, packets=12, spec=DeploymentSpec(
        n_sites=9, receivers_per_site=2, n_replicas=1, depth=3, fanout=3)),
}


# -- schedule sampling ----------------------------------------------------


def sample_hierarchy_schedule(rng: random.Random, shape: HierarchyShape) -> FaultSchedule:
    """Draw one recoverable-by-construction schedule for a deep tree."""
    sites, receivers, loggers = shape.targets()
    hubs = shape.hubs()
    faults: list[Fault] = []

    def at(lo: float = 0.8, hi: float = 7.8) -> float:
        return round(rng.uniform(lo, hi), 3)

    def dur(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 3)

    # Tree surgery is the point of this campaign: every schedule carries
    # at least one hub disturbance or explicit mutation.
    menu = [
        "hub-blip", "hub-blip", "hub-crash", "reparent", "reparent",
        "rx-blip", "logger-blip", "partition",
    ]
    hub_crash_budget = 1  # at most one *permanent* hub loss per schedule
    for pick_index in range(rng.randrange(2, 5)):
        pick = rng.choice(menu) if pick_index else rng.choice(
            ["hub-blip", "hub-crash", "reparent"]
        )
        if pick == "hub-blip":
            faults.extend(blip(rng, hubs, at, dur))
        elif pick == "hub-crash":
            if not hub_crash_budget:
                continue
            hub_crash_budget = 0
            faults.append(Fault("crash", at(1.0, 5.0), rng.choice(hubs)))
        elif pick == "reparent":
            # Mid-epoch mutation of a live edge: a site logger or a hub
            # is shoved onto its best alternative parent.
            faults.append(Fault("reparent", at(), rng.choice(loggers + hubs)))
        elif pick == "rx-blip":
            faults.extend(blip(rng, receivers, at, dur))
        elif pick == "logger-blip":
            faults.extend(blip(rng, loggers, at, dur))
        else:  # partition
            faults.append(
                Fault("partition", at(), rng.choice(sites), duration=dur(0.5, 2.0))
            )
    return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))


HIERARCHY_CHAOS = Campaign(
    "hierarchy-chaos", "hierarchy-chaos", TIERS, sample_hierarchy_schedule
)
