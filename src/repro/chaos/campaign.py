"""The randomized chaos conformance campaign behind ``repro chaos``.

A campaign samples fault schedules from a seed, runs each one against a
small LBRM deployment under **both** simulation engines (the timer-wheel
``Simulator`` and the pure-heap ``ReferenceSimulator``), checks the
:class:`~repro.chaos.oracle.ChaosOracle` invariants throughout, and
cross-checks that the two engines produced bit-identical end states.
On any violation it prints a reproducer seed and a greedily *minimized*
schedule — the smallest fault subset that still breaks the invariant.

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
from dataclasses import dataclass
from pathlib import Path

from repro.chaos.controller import ChaosController
from repro.chaos.oracle import ChaosOracle, Violation
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.config import LbrmConfig, LoggerConfig, ReceiverConfig
from repro.core.logger import LogServer
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment
from repro.simnet.engine import ReferenceSimulator, Simulator

__all__ = [
    "CampaignShape",
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
    """Deployment dimensions and workload for one campaign tier."""

    runs: int
    n_sites: int
    receivers_per_site: int
    n_replicas: int
    packets: int
    # The logger tree (DESIGN §11); the flat layout unless a tier says otherwise.
    depth: int = 2
    fanout: int = 8


TIERS: dict[str, CampaignShape] = {
    "quick": CampaignShape(runs=3, n_sites=2, receivers_per_site=2, n_replicas=1, packets=10),
    "full": CampaignShape(runs=8, n_sites=3, receivers_per_site=3, n_replicas=2, packets=14),
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
    sites = [f"site{i}" for i in range(1, shape.n_sites + 1)]
    receivers = [
        f"site{i}-rx{j}"
        for i in range(1, shape.n_sites + 1)
        for j in range(shape.receivers_per_site)
    ]
    loggers = [f"site{i}-logger" for i in range(1, shape.n_sites + 1)]
    faults: list[Fault] = []

    def at(lo: float = 0.8, hi: float = 7.8) -> float:
        return round(rng.uniform(lo, hi), 3)

    def dur(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 3)

    if shape.n_replicas >= 1 and rng.random() < 0.25:
        # Failover scenario: kill the primary for good mid-stream; the
        # sender must locate and promote the best replica (§2.2.3).
        # Only gentle receiver-side extras ride along so the secondary
        # loggers keep seeing the multicast stream directly.
        faults.append(Fault("crash", at(1.0, 4.0), "primary"))
        for _ in range(rng.randrange(0, 3)):
            faults.extend(_receiver_blip(rng, receivers, at, dur))
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
            faults.extend(_receiver_blip(rng, receivers, at, dur))
        elif pick == "rx-pause":
            start = at()
            faults.append(Fault("pause", start, rng.choice(receivers)))
            faults.append(Fault("resume", round(start + dur(0.3, 2.0), 3), faults[-1].target))
        elif pick == "logger-blip":
            start = at()
            victim = rng.choice(loggers)
            faults.append(Fault("crash", start, victim))
            faults.append(Fault("restart", round(start + dur(0.3, 2.0), 3), victim))
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
        faults.extend(_receiver_blip(rng, receivers, at, dur))
    return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))


def _receiver_blip(rng: random.Random, receivers: list[str], at, dur) -> list[Fault]:
    start = at()
    victim = rng.choice(receivers)
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
    engine: str = "fast",
    sabotage: str | None = None,
    tag: str = "chaos",
) -> CaseOutcome:
    """Run one schedule against one deployment under one engine.

    On a tree with interior hubs the digest additionally covers the
    hierarchy snapshot (final parent map, every applied move, manager
    counters): the engines must agree on the exact tree surgery too.
    """
    sim = Simulator() if engine == "fast" else ReferenceSimulator()
    spec = DeploymentSpec(
        n_sites=shape.n_sites,
        receivers_per_site=shape.receivers_per_site,
        n_replicas=shape.n_replicas,
        depth=shape.depth,
        fanout=shape.fanout,
        config=_CAMPAIGN_CONFIG,
        seed=case_seed,
    )
    with _sabotaged(sabotage):
        dep = LbrmDeployment(spec, sim=sim)
        controller = ChaosController(dep, schedule)
        controller.install()
        oracle = ChaosOracle(dep, controller)
        oracle.install()
        dep.start()
        span = ACTIVE_END - WARMUP
        for i in range(shape.packets):
            send_at = WARMUP + (i + 0.5) * span / shape.packets
            dep.advance(send_at - dep.sim.now)
            dep.send(f"{tag}-{i}".encode())
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
    """Fingerprint of the end state, for cross-engine agreement checks.

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
    engine: str = "fast",
    sabotage: str | None = None,
    tag: str = "chaos",
) -> FaultSchedule:
    """Greedily drop faults while the violation persists (ddmin-lite)."""

    def violates(candidate: FaultSchedule) -> bool:
        return bool(run_case(shape, candidate, case_seed, engine, sabotage, tag).violations)

    current = schedule
    index = len(current.faults) - 1
    while index >= 0:
        candidate = current.without(index)
        if violates(candidate):
            current = candidate
        index -= 1
    return current


# -- the campaign ----------------------------------------------------------


def derive_case_seed(campaign_seed: int, index: int, campaign: str = "chaos") -> int:
    digest = hashlib.sha256(f"{campaign}:{campaign_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_campaign(
    seed: int,
    tier: str = "quick",
    engines: tuple[str, ...] = ("fast", "reference"),
    sabotage: str | None = None,
    runs: int | None = None,
) -> dict:
    """Run the campaign; returns the (JSON-stable) report dict."""
    shape = TIERS[tier]
    n_runs = runs if runs is not None else shape.runs
    cases = []
    failures = []
    total_faults = 0
    total_violations = 0
    for index in range(n_runs):
        case_seed = derive_case_seed(seed, index)
        schedule = sample_schedule(random.Random(f"chaos-campaign:{seed}:{index}"), shape)
        per_engine = {}
        for engine in engines:
            outcome = run_case(shape, schedule, case_seed, engine, sabotage)
            per_engine[engine] = {
                "digest": outcome.digest,
                "faults_injected": outcome.faults_injected,
                "violations": [v.to_dict() for v in outcome.violations],
            }
            total_faults += outcome.faults_injected
            total_violations += len(outcome.violations)
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
            minimized = minimize_schedule(shape, schedule, case_seed, engines[0], sabotage)
            failures.append({
                "index": index,
                "case_seed": case_seed,
                "reproducer": f"repro chaos --{tier} --seed {seed} --runs {n_runs}",
                "minimized_schedule": minimized.to_dict(),
            })
    return {
        "campaign": {
            "seed": seed,
            "tier": tier,
            "runs": n_runs,
            "engines": list(engines),
            "sabotage": sabotage,
            "shape": {
                "n_sites": shape.n_sites,
                "receivers_per_site": shape.receivers_per_site,
                "n_replicas": shape.n_replicas,
                "packets": shape.packets,
            },
        },
        "cases": cases,
        "failures": failures,
        "totals": {"faults_injected": total_faults, "violations": total_violations},
    }


# -- CLI ----------------------------------------------------------


def build_chaos_parser(parser: argparse.ArgumentParser) -> None:
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_const", const="quick", dest="tier",
                      help="small campaign (default): 3 cases, 2 sites")
    tier.add_argument("--full", action="store_const", const="full", dest="tier",
                      help="larger campaign: 8 cases, 3 sites, 2 replicas")
    parser.set_defaults(tier="quick")
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument("--runs", type=int, default=None, help="override the tier's case count")
    parser.add_argument("--engine", choices=("both", "fast", "reference"), default="both",
                        help="simulation engine(s) to run each case under (default both)")
    parser.add_argument("--sabotage", choices=sorted(SABOTAGES), default=None,
                        help="deliberately break the protocol to demo oracle detection")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write CHAOS_seed<seed>.json into DIR")
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")


def run_chaos(args: argparse.Namespace) -> int:
    engines = ("fast", "reference") if args.engine == "both" else (args.engine,)
    report = run_campaign(
        args.seed, tier=args.tier, engines=engines, sabotage=args.sabotage, runs=args.runs
    )
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"CHAOS_seed{args.seed}.json").write_text(text + "\n")
    if args.json:
        print(text)
    else:
        meta = report["campaign"]
        print(
            f"chaos campaign: seed={meta['seed']} tier={meta['tier']} "
            f"cases={meta['runs']} engines={','.join(meta['engines'])}"
            + (f" sabotage={meta['sabotage']}" if meta["sabotage"] else "")
        )
        for case in report["cases"]:
            n_violations = sum(len(e["violations"]) for e in case["engines"].values())
            print(
                f"  case {case['index']}: seed={case['case_seed']} "
                f"faults={len(case['schedule']['faults'])} "
                f"violations={n_violations} "
                f"engines_agree={'yes' if case['engines_agree'] else 'NO'}"
            )
        totals = report["totals"]
        print(f"totals: faults_injected={totals['faults_injected']} "
              f"violations={totals['violations']}")
        for failure in report["failures"]:
            print(f"FAILURE in case {failure['index']} (case_seed {failure['case_seed']})")
            print(f"  reproducer: {failure['reproducer']}")
            print(f"  minimized schedule: {json.dumps(failure['minimized_schedule'], sort_keys=True)}")
    return 1 if report["failures"] else 0
