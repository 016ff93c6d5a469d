"""The randomized chaos conformance campaign behind ``repro chaos``.

A campaign samples fault schedules from a seed, runs each one against a
small LBRM deployment and checks the
:class:`~repro.chaos.oracle.ChaosOracle` invariants throughout.
On any violation it prints a reproducer seed and a greedily *minimized*
schedule — the smallest fault subset that still breaks the invariant.

One loop, one parser and one printer serve every campaign; what tells
``repro chaos`` from ``repro hierarchy-chaos`` is a :class:`Campaign`
record (tiers, sampler, names), and whether a tier's tree has interior
hubs decides whether re-parenting is reported.

Everything is derived from the campaign seed: schedules, deployment
RNG streams, and packet-chaos draws.  Reports contain no wallclock
timestamps, so the same seed yields a byte-identical report — which CI
asserts by running the campaign twice and diffing.

Recoverable by construction
---------------------------

The sampler only emits schedules the protocol is *supposed* to survive:
the source is never killed, at most one primary-side component is
disturbed at a time (and a permanent primary crash only when replicas
exist to fail over to), partitions and blips are short enough to fit
inside the (deliberately generous) retry budgets of the campaign
config, and corruption targets receivers — the parties the paper makes
responsible for their own reliability.  Any invariant violation under
such a schedule is therefore a protocol bug, not an impossible ask.

A *sabotage* deliberately breaks the build (e.g. secondary loggers drop
every NACK) to prove the oracle catches real regressions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.chaos.controller import ChaosController
from repro.chaos.oracle import ChaosOracle, Violation
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.config import LbrmConfig, LoggerConfig, ReceiverConfig
from repro.core.logger import LogServer
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment

__all__ = [
    "CampaignShape",
    "Campaign",
    "CHAOS",
    "TIERS",
    "SABOTAGES",
    "sample_schedule",
    "run_case",
    "minimize_schedule",
    "run_campaign",
    "build_chaos_parser",
    "run_chaos",
]

# Timeline of every case: quiet warm-up, an active window carrying both
# the data stream and the faults, then a long drain for recovery (the
# receiver escalation ladder alone can take ~12 s at campaign retry
# budgets, and post-stream heartbeats back off toward h_max).
WARMUP = 0.5
ACTIVE_END = 8.5
DRAIN = 25.0

# Retry budgets are raised well past every fault duration the sampler
# can emit, so "ran out of retries" never masquerades as a protocol bug.
_CAMPAIGN_CONFIG = LbrmConfig(
    receiver=ReceiverConfig(max_nack_retries=10),
    logger=LoggerConfig(max_upstream_retries=30),
)


@dataclass(frozen=True)
class CampaignShape:
    """The group (``config`` and ``seed`` are set per case) and workload of
    one campaign tier."""

    runs: int
    spec: DeploymentSpec
    packets: int
    # Payload prefix of the data stream (part of every case's packet bytes).
    tag: str = "chaos"

    @property
    def has_hubs(self) -> bool:
        """Interior hubs exist, so the tree can re-parent and reports say so."""
        return self.spec.depth > 2

    def targets(self) -> tuple[list[str], list[str], list[str]]:
        """(sites, receivers, site loggers) this shape's deployment builds."""
        indices = range(1, self.spec.n_sites + 1)
        return (
            [f"site{i}" for i in indices],
            [f"site{i}-rx{j}" for i in indices for j in range(self.spec.receivers_per_site)],
            [f"site{i}-logger" for i in indices],
        )


TIERS: dict[str, CampaignShape] = {
    "quick": CampaignShape(runs=3, packets=10, spec=DeploymentSpec(
        n_sites=2, receivers_per_site=2, n_replicas=1)),
    "full": CampaignShape(runs=8, packets=14, spec=DeploymentSpec(
        n_sites=3, receivers_per_site=3, n_replicas=2)),
}

SABOTAGES: dict[str, str] = {
    "logger-retrans": "logging servers drop every NACK (retransmission service disabled)",
}


@contextmanager
def _sabotaged(name: str | None):
    if name is None:
        yield
        return
    if name not in SABOTAGES:
        raise ValueError(f"unknown sabotage {name!r} (one of {sorted(SABOTAGES)})")
    original = LogServer._on_nack
    LogServer._on_nack = lambda self, packet, src, now: []
    try:
        yield
    finally:
        LogServer._on_nack = original


# -- schedule sampling ----------------------------------------------------


def sample_schedule(rng: random.Random, shape: CampaignShape) -> FaultSchedule:
    """Draw one recoverable-by-construction fault schedule."""
    sites, receivers, loggers = shape.targets()
    faults: list[Fault] = []

    def at(lo: float = 0.8, hi: float = 7.8) -> float:
        return round(rng.uniform(lo, hi), 3)

    def dur(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 3)

    if shape.spec.n_replicas >= 1 and rng.random() < 0.25:
        # Failover scenario: kill the primary for good mid-stream; the
        # sender must locate and promote the best replica (§2.2.3).
        # Only gentle receiver-side extras ride along so the secondary
        # loggers keep seeing the multicast stream directly.
        faults.append(Fault("crash", at(1.0, 4.0), "primary"))
        for _ in range(rng.randrange(0, 3)):
            faults.extend(blip(rng, receivers, at, dur))
        return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))

    menu = [
        "rx-blip", "rx-blip", "rx-pause", "logger-blip", "logger-blip",
        "partition", "partition", "skew", "duplicate", "corrupt", "reorder",
        "primary-pause",
    ]
    primary_budget = 1  # at most one primary-side disturbance per schedule
    for _ in range(rng.randrange(2, 6)):
        pick = rng.choice(menu)
        if pick == "rx-blip":
            faults.extend(blip(rng, receivers, at, dur))
        elif pick == "rx-pause":
            start = at()
            faults.append(Fault("pause", start, rng.choice(receivers)))
            faults.append(Fault("resume", round(start + dur(0.3, 2.0), 3), faults[-1].target))
        elif pick == "logger-blip":
            faults.extend(blip(rng, loggers, at, dur))
        elif pick == "partition":
            faults.append(Fault("partition", at(), rng.choice(sites), duration=dur(0.5, 2.5)))
        elif pick == "skew":
            amount = round(rng.uniform(0.02, 0.1) * rng.choice((-1, 1)), 3)
            faults.append(Fault("skew", at(), rng.choice(receivers + loggers), amount=amount))
        elif pick == "duplicate":
            target = rng.choice([""] + receivers)
            faults.append(
                Fault("duplicate", at(), target, duration=dur(0.5, 2.0),
                      amount=round(rng.uniform(0.3, 0.8), 3))
            )
        elif pick == "corrupt":
            # Corruption (checksum-discard) aims at receivers only: the
            # paper holds receivers responsible for their own recovery,
            # and scoping keeps the primary's control channel clean.
            faults.append(
                Fault("corrupt", at(), rng.choice(receivers), duration=dur(0.3, 1.5),
                      amount=round(rng.uniform(0.05, 0.25), 3))
            )
        elif pick == "reorder":
            faults.append(
                Fault("reorder", at(), rng.choice(receivers), duration=dur(0.3, 1.5),
                      amount=round(rng.uniform(0.02, 0.15), 3))
            )
        elif pick == "primary-pause" and primary_budget:
            primary_budget = 0
            start = at(1.0, 6.0)
            faults.append(Fault("pause", start, "primary"))
            faults.append(Fault("resume", round(start + dur(0.3, 1.4), 3), "primary"))
    if not faults:  # pragma: no cover - menu always yields something
        faults.extend(blip(rng, receivers, at, dur))
    return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))


def blip(rng: random.Random, victims: list[str], at, dur) -> list[Fault]:
    """Crash one of ``victims`` and restart it 0.3-2 s later.

    Draw order (start, victim, downtime) is part of every sampled
    schedule: both samplers go through here.
    """
    start = at()
    victim = rng.choice(victims)
    return [
        Fault("crash", start, victim),
        Fault("restart", round(start + dur(0.3, 2.0), 3), victim),
    ]


# -- single case ----------------------------------------------------------


@dataclass
class CaseOutcome:
    violations: list[Violation]
    faults_injected: int
    digest: str
    reparents: int = 0


def run_case(
    shape: CampaignShape,
    schedule: FaultSchedule,
    case_seed: int,
    sabotage: str | None = None,
) -> CaseOutcome:
    """Run one schedule against one deployment.

    On a tree with interior hubs the digest additionally covers the
    hierarchy snapshot (final parent map, every applied move, manager
    counters): a same-seed rerun must repeat the exact tree surgery too.
    """
    with _sabotaged(sabotage):
        dep = LbrmDeployment(replace(shape.spec, config=_CAMPAIGN_CONFIG, seed=case_seed))
        controller = ChaosController(dep, schedule)
        controller.install()
        oracle = ChaosOracle(dep)
        oracle.install()
        dep.start()
        span = ACTIVE_END - WARMUP
        for i in range(shape.packets):
            send_at = WARMUP + (i + 0.5) * span / shape.packets
            dep.advance(send_at - dep.sim.now)
            dep.send(f"{shape.tag}-{i}".encode())
        dep.advance(ACTIVE_END - dep.sim.now + DRAIN)
        violations = oracle.finish()
    if dep.hierarchy is None:
        return CaseOutcome(violations, controller.faults_injected, end_state_digest(dep))
    stats = dep.hierarchy.manager.stats
    return CaseOutcome(
        violations=violations,
        faults_injected=controller.faults_injected,
        digest=end_state_digest(dep, hierarchy=dep.hierarchy.to_dict()),
        reparents=sum(v for k, v in stats.items() if k.startswith("reparents_")),
    )


def end_state_digest(dep: LbrmDeployment, **extras) -> str:
    """Fingerprint of the end state, for same-seed determinism checks.

    ``extras`` are the further state a campaign's digest covers (the
    tree surgery, the replicated logs).
    """
    state = {
        "seq": dep.sender.seq,
        "released": dep.sender.released_up_to,
        "primary": str(dep.sender.primary),
        "network": dep.network.stats,
        "receivers": {
            node.name: [s for s in range(1, dep.sender.seq + 1) if rx.tracker.has(s)]
            for rx, node in zip(dep.receivers, dep.receiver_nodes)
        },
        **extras,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]


def minimize_schedule(
    shape: CampaignShape,
    schedule: FaultSchedule,
    case_seed: int,
    sabotage: str | None = None,
) -> FaultSchedule:
    """Greedily drop faults while the violation persists (ddmin-lite)."""

    def violates(candidate: FaultSchedule) -> bool:
        return bool(run_case(shape, candidate, case_seed, sabotage).violations)

    current = schedule
    index = len(current.faults) - 1
    while index >= 0:
        candidate = current.without(index)
        if violates(candidate):
            current = candidate
        index -= 1
    return current


# -- the campaign ----------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    """What tells one campaign command from another: data, not code."""

    #: CLI subcommand; also labels case seeds, reproducer lines and the
    #: report file (``CHAOS_seed<seed>.json`` for ``chaos``).
    name: str
    #: Label of the schedule RNG (differs from ``name`` for the flat
    #: campaign; changing either would re-sample every schedule).
    rng_label: str
    tiers: dict[str, CampaignShape]
    sampler: Callable[[random.Random, CampaignShape], FaultSchedule]
    #: Sabotages the command offers (``--sabotage`` exists iff any).
    sabotages: tuple[str, ...] = ()

    def outfile(self, seed: object) -> str:
        return f"{self.name.upper().replace('-', '_')}_seed{seed}.json"

    def case_seed(self, campaign_seed: int, index: int) -> int:
        digest = hashlib.sha256(f"{self.name}:{campaign_seed}:{index}".encode()).digest()
        return int.from_bytes(digest[:4], "big")


CHAOS = Campaign("chaos", "chaos-campaign", TIERS, sample_schedule, tuple(SABOTAGES))


def run_campaign(
    seed: int,
    tier: str = "quick",
    sabotage: str | None = None,
    runs: int | None = None,
    campaign: Campaign = CHAOS,
) -> dict:
    """Run ``campaign``; returns the (JSON-stable) report dict."""
    shape = campaign.tiers[tier]
    n_runs = runs if runs is not None else shape.runs
    cases = []
    failures = []
    for index in range(n_runs):
        case_seed = campaign.case_seed(seed, index)
        schedule = campaign.sampler(random.Random(f"{campaign.rng_label}:{seed}:{index}"), shape)
        outcome = run_case(shape, schedule, case_seed, sabotage)
        case = {
            "index": index,
            "case_seed": case_seed,
            "schedule": schedule.to_dict(),
            "digest": outcome.digest,
            "faults_injected": outcome.faults_injected,
            "violations": [v.to_dict() for v in outcome.violations],
        }
        if shape.has_hubs:
            case["reparents"] = outcome.reparents
        cases.append(case)
        if outcome.violations:
            minimized = minimize_schedule(shape, schedule, case_seed, sabotage)
            failures.append({
                "index": index,
                "case_seed": case_seed,
                "reproducer": f"repro {campaign.name} --{tier} --seed {seed} --runs {n_runs}",
                "minimized_schedule": minimized.to_dict(),
            })
    spec = shape.spec
    shape_block = {
        "n_sites": spec.n_sites,
        "receivers_per_site": spec.receivers_per_site,
        "n_replicas": spec.n_replicas,
        "packets": shape.packets,
    }
    totals = {
        "faults_injected": sum(case["faults_injected"] for case in cases),
        "violations": sum(len(case["violations"]) for case in cases),
    }
    if shape.has_hubs:
        shape_block.update(depth=spec.depth, fanout=spec.fanout)
        totals["reparents"] = sum(case["reparents"] for case in cases)
    return {
        "campaign": {
            "seed": seed,
            "tier": tier,
            "runs": n_runs,
            "sabotage": sabotage,
            "shape": shape_block,
        },
        "cases": cases,
        "failures": failures,
        "totals": totals,
    }


# -- CLI ----------------------------------------------------------


def build_chaos_parser(parser: argparse.ArgumentParser, campaign: Campaign = CHAOS) -> None:
    tier = parser.add_mutually_exclusive_group()
    for name, shape in campaign.tiers.items():
        spec = shape.spec
        tier.add_argument(
            f"--{name}", action="store_const", const=name, dest="tier",
            help=f"{shape.runs} cases: {spec.n_sites} sites x {spec.receivers_per_site} "
                 f"receivers, {spec.n_replicas} replica(s), depth {spec.depth}",
        )
    parser.set_defaults(tier="quick", campaign=campaign, sabotage=None)
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument("--runs", type=int, default=None, help="override the tier's case count")
    if campaign.sabotages:
        parser.add_argument("--sabotage", choices=sorted(campaign.sabotages),
                            help="deliberately break the protocol to demo oracle detection")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help=f"write {campaign.outfile('<seed>')} into DIR")
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")


def run_chaos(args: argparse.Namespace) -> int:
    campaign: Campaign = args.campaign
    report = run_campaign(
        args.seed, tier=args.tier, sabotage=args.sabotage, runs=args.runs, campaign=campaign
    )
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / campaign.outfile(args.seed)).write_text(text + "\n")
    if args.json:
        print(text)
    else:
        _print_report(campaign, report)
    return 1 if report["failures"] else 0


def _print_report(campaign: Campaign, report: dict) -> None:
    meta = report["campaign"]
    shape = meta["shape"]
    tree = "depth" in shape  # reparents are reported iff the tree has hubs
    print(
        f"{campaign.name.replace('-', ' ')} campaign: seed={meta['seed']} "
        f"tier={meta['tier']} cases={meta['runs']}"
        + (f" depth={shape['depth']} fanout={shape['fanout']}" if tree else "")
        + (f" sabotage={meta['sabotage']}" if meta["sabotage"] else "")
    )
    for case in report["cases"]:
        print(
            f"  case {case['index']}: seed={case['case_seed']} "
            f"faults={len(case['schedule']['faults'])} "
            + (f"reparents={case['reparents']} " if tree else "")
            + f"violations={len(case['violations'])} digest={case['digest']}"
        )
    totals = report["totals"]
    print(
        f"totals: faults_injected={totals['faults_injected']} "
        + (f"reparents={totals['reparents']} " if tree else "")
        + f"violations={totals['violations']}"
    )
    for failure in report["failures"]:
        print(f"FAILURE in case {failure['index']} (case_seed {failure['case_seed']})")
        print(f"  reproducer: {failure['reproducer']}")
        print(f"  minimized schedule: {json.dumps(failure['minimized_schedule'], sort_keys=True)}")
