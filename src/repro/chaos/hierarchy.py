"""The k-level hierarchy chaos campaign behind ``repro hierarchy-chaos``.

Same contract as :mod:`repro.chaos.campaign`, aimed at deep repair
trees (DESIGN §11): every case builds a ``depth >= 3`` deployment whose
interior hubs sit *between* the site loggers and the primary, and the
fault sampler leans on the tree — crash-and-restart a hub, crash one
for good mid-stream, or inject a mid-epoch ``reparent`` mutation — on
top of the usual receiver/site-logger/partition noise.

The oracle contract is unchanged: the I1–I6 invariants must hold under
every sampled schedule, on **both** engines, with bit-identical end
states.  The digest additionally folds in the hierarchy snapshot (final
parent map, every applied move, manager counters), so the two engines
must agree not just on what the receivers got but on the exact sequence
of tree surgery that got them there.

Recoverable by construction: the source and the primary stay alive, at
most one *permanent* hub crash per schedule (its subtree must re-parent
around it — that is the scenario under test, ISSUE 10), and every other
disturbance heals inside the drain window's retry budgets.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.chaos.campaign import (
    CampaignShape,
    CaseOutcome,
    derive_case_seed,
    minimize_schedule,
    run_case,
)
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.hierarchy import interior_name, plan_level_sizes

__all__ = [
    "HierarchyShape",
    "TIERS",
    "sample_hierarchy_schedule",
    "run_hierarchy_case",
    "run_hierarchy_campaign",
    "build_hierarchy_chaos_parser",
    "run_hierarchy_chaos",
]


@dataclass(frozen=True)
class HierarchyShape(CampaignShape):
    """A campaign tier on a deep tree (same retry budgets as the flat one)."""

    def hubs(self) -> list[str]:
        """Interior-logger names this shape's deployment will build."""
        sizes = plan_level_sizes(self.n_sites, self.depth, self.fanout)
        return [
            interior_name(level, index)
            for level in sorted(sizes)
            for index in range(sizes[level])
        ]


TIERS: dict[str, HierarchyShape] = {
    "quick": HierarchyShape(
        runs=3, n_sites=6, receivers_per_site=1, n_replicas=1,
        depth=3, fanout=3, packets=8,
    ),
    "full": HierarchyShape(
        runs=6, n_sites=9, receivers_per_site=2, n_replicas=1,
        depth=3, fanout=3, packets=12,
    ),
}


# -- schedule sampling ----------------------------------------------------


def sample_hierarchy_schedule(rng: random.Random, shape: HierarchyShape) -> FaultSchedule:
    """Draw one recoverable-by-construction schedule for a deep tree."""
    sites = [f"site{i}" for i in range(1, shape.n_sites + 1)]
    receivers = [
        f"site{i}-rx{j}"
        for i in range(1, shape.n_sites + 1)
        for j in range(shape.receivers_per_site)
    ]
    loggers = [f"site{i}-logger" for i in range(1, shape.n_sites + 1)]
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
            start = at()
            victim = rng.choice(hubs)
            faults.append(Fault("crash", start, victim))
            faults.append(Fault("restart", round(start + dur(0.3, 2.0), 3), victim))
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
            start = at()
            victim = rng.choice(receivers)
            faults.append(Fault("crash", start, victim))
            faults.append(Fault("restart", round(start + dur(0.3, 2.0), 3), victim))
        elif pick == "logger-blip":
            start = at()
            victim = rng.choice(loggers)
            faults.append(Fault("crash", start, victim))
            faults.append(Fault("restart", round(start + dur(0.3, 2.0), 3), victim))
        else:  # partition
            faults.append(
                Fault("partition", at(), rng.choice(sites), duration=dur(0.5, 2.0))
            )
    return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))


# -- single case ----------------------------------------------------------


def run_hierarchy_case(
    shape: HierarchyShape,
    schedule: FaultSchedule,
    case_seed: int,
    engine: str = "fast",
) -> CaseOutcome:
    """Run one schedule against one deep deployment under one engine."""
    return run_case(shape, schedule, case_seed, engine, tag="hchaos")


# -- the campaign ----------------------------------------------------------


def run_hierarchy_campaign(
    seed: int,
    tier: str = "quick",
    engines: tuple[str, ...] = ("fast", "reference"),
    runs: int | None = None,
) -> dict:
    """Run the deep-tree campaign; returns the (JSON-stable) report dict."""
    shape = TIERS[tier]
    n_runs = runs if runs is not None else shape.runs
    cases = []
    failures = []
    total_faults = 0
    total_violations = 0
    total_reparents = 0
    for index in range(n_runs):
        case_seed = derive_case_seed(seed, index, "hierarchy-chaos")
        schedule = sample_hierarchy_schedule(
            random.Random(f"hierarchy-chaos:{seed}:{index}"), shape
        )
        per_engine = {}
        for engine in engines:
            outcome = run_hierarchy_case(shape, schedule, case_seed, engine)
            per_engine[engine] = {
                "digest": outcome.digest,
                "faults_injected": outcome.faults_injected,
                "reparents": outcome.reparents,
                "violations": [v.to_dict() for v in outcome.violations],
            }
            total_faults += outcome.faults_injected
            total_violations += len(outcome.violations)
            total_reparents += outcome.reparents
        engines_agree = len({e["digest"] for e in per_engine.values()}) == 1
        case = {
            "index": index,
            "case_seed": case_seed,
            "schedule": schedule.to_dict(),
            "engines": per_engine,
            "engines_agree": engines_agree,
        }
        cases.append(case)
        violated = any(e["violations"] for e in per_engine.values())
        if violated or not engines_agree:
            minimized = minimize_schedule(shape, schedule, case_seed, engines[0], tag="hchaos")
            failures.append({
                "index": index,
                "case_seed": case_seed,
                "reproducer": f"repro hierarchy-chaos --{tier} --seed {seed} --runs {n_runs}",
                "minimized_schedule": minimized.to_dict(),
            })
    return {
        "campaign": {
            "seed": seed,
            "tier": tier,
            "runs": n_runs,
            "engines": list(engines),
            "shape": {
                "n_sites": shape.n_sites,
                "receivers_per_site": shape.receivers_per_site,
                "n_replicas": shape.n_replicas,
                "depth": shape.depth,
                "fanout": shape.fanout,
                "packets": shape.packets,
            },
        },
        "cases": cases,
        "failures": failures,
        "totals": {
            "faults_injected": total_faults,
            "violations": total_violations,
            "reparents": total_reparents,
        },
    }


# -- CLI ----------------------------------------------------------


def build_hierarchy_chaos_parser(parser: argparse.ArgumentParser) -> None:
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_const", const="quick", dest="tier",
                      help="small campaign (default): 3 cases, 6 sites, depth 3")
    tier.add_argument("--full", action="store_const", const="full", dest="tier",
                      help="larger campaign: 6 cases, 9 sites x 2 receivers")
    parser.set_defaults(tier="quick")
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument("--runs", type=int, default=None, help="override the tier's case count")
    parser.add_argument("--engine", choices=("both", "fast", "reference"), default="both",
                        help="simulation engine(s) to run each case under (default both)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write HIERARCHY_CHAOS_seed<seed>.json into DIR")
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")


def run_hierarchy_chaos(args: argparse.Namespace) -> int:
    engines = ("fast", "reference") if args.engine == "both" else (args.engine,)
    report = run_hierarchy_campaign(args.seed, tier=args.tier, engines=engines, runs=args.runs)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"HIERARCHY_CHAOS_seed{args.seed}.json").write_text(text + "\n")
    if args.json:
        print(text)
    else:
        meta = report["campaign"]
        print(
            f"hierarchy chaos campaign: seed={meta['seed']} tier={meta['tier']} "
            f"cases={meta['runs']} depth={meta['shape']['depth']} "
            f"fanout={meta['shape']['fanout']} engines={','.join(meta['engines'])}"
        )
        for case in report["cases"]:
            n_violations = sum(len(e["violations"]) for e in case["engines"].values())
            reparents = max(e["reparents"] for e in case["engines"].values())
            print(
                f"  case {case['index']}: seed={case['case_seed']} "
                f"faults={len(case['schedule']['faults'])} "
                f"reparents={reparents} violations={n_violations} "
                f"engines_agree={'yes' if case['engines_agree'] else 'NO'}"
            )
        totals = report["totals"]
        print(f"totals: faults_injected={totals['faults_injected']} "
              f"reparents={totals['reparents']} violations={totals['violations']}")
        for failure in report["failures"]:
            print(f"FAILURE in case {failure['index']} (case_seed {failure['case_seed']})")
            print(f"  reproducer: {failure['reproducer']}")
            print(f"  minimized schedule: {json.dumps(failure['minimized_schedule'], sort_keys=True)}")
    return 1 if report["failures"] else 0
