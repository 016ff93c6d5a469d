"""Exhaustive crash-point failover sweep behind ``repro failover-sweep``.

Where the chaos campaign *samples* fault schedules, the sweep is a
proof by enumeration: it first replays a fixed failover scenario under
a recording simulator to learn **every distinct schedule point** (the
times at which any event fires — timer wakeups, packet deliveries,
application sends), then replays the scenario once per point with the
primary logging server crashed exactly there, grading each replay with
the full :class:`~repro.chaos.oracle.ChaosOracle` (invariants I1–I4
plus the I6 commit-point checks).  A green sweep therefore means: there
is **no moment** in the schedule at which losing the primary loses a
committed packet or stalls recovery — not "we tried a few times and it
looked fine".

Soundness of the enumeration
----------------------------

A discrete-event simulation only changes state when an event fires, so
crashing the primary between two consecutive schedule points is
indistinguishable from crashing it at the later point: the point list
*is* the complete set of distinguishable crash instants.  The baseline
is recorded **without** the oracle attached (the oracle schedules its
own periodic sweeps, which would pollute the point set with observer
artifacts); replays run with it.

Recoverable by construction
---------------------------

The scenario only injects loss on receiver inbound links: site loggers
see the multicast stream loss-free, so every replay is a world the
protocol is *supposed* to survive and any violation is a protocol bug.
The double-failure variant (``--double``) additionally crashes whatever
node the sender trusts as primary shortly after each crash point —
with two replicas and ``min_replicas_acked=2`` the release point never
passes what *both* replicas hold, so even losing the primary **and**
the freshly promoted replica is provably zero-loss.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

from repro.chaos.campaign import end_state_digest
from repro.chaos.oracle import ChaosOracle, Violation
from repro.core.config import (
    LbrmConfig,
    LoggerConfig,
    ReceiverConfig,
    ReplicationConfig,
)
from repro.core.logger import LoggerRole
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment
from repro.simnet.engine import Simulator
from repro.simnet.loss import BernoulliLoss

__all__ = [
    "SweepShape",
    "TIERS",
    "RecordingSimulator",
    "sweep_config",
    "enumerate_crash_points",
    "run_crash_case",
    "run_sweep_campaign",
    "build_sweep_parser",
    "run_sweep",
]

# Short timeline: the sweep replays the scenario once per schedule
# point, so each replay must be cheap.  WARMUP..ACTIVE_END carries the
# paced data stream; DRAIN covers failover detection (primary_timeout +
# failover_wait), handover, and receiver recovery.
WARMUP = 0.25
ACTIVE_END = 2.25
DRAIN = 5.0

#: Crash-time grid resolution.  Schedule points are rounded to this
#: before deduplication; two events closer than a nanosecond are the
#: same crash instant for every protocol timer in the system.
_ROUND = 9


def sweep_config(*, min_replicas_acked: int = 1) -> LbrmConfig:
    """The sweep's protocol config: generous retry budgets (recovery
    exhaustion must never masquerade as a failover bug) and failover
    timers tightened so detection + promotion fit inside DRAIN."""
    return LbrmConfig(
        receiver=ReceiverConfig(max_nack_retries=10),
        logger=LoggerConfig(max_upstream_retries=30),
        replication=ReplicationConfig(
            min_replicas_acked=min_replicas_acked,
            update_retry=0.1,
            primary_timeout=0.6,
            failover_wait=0.2,
        ),
    )


@dataclass(frozen=True)
class SweepShape:
    """Deployment dimensions and workload for one sweep tier."""

    n_sites: int
    receivers_per_site: int
    n_replicas: int
    packets: int
    rx_loss: float


TIERS: dict[str, SweepShape] = {
    # micro: the tier-1 test shape — small enough to enumerate and
    # replay inside the regular pytest budget.
    "micro": SweepShape(n_sites=1, receivers_per_site=2, n_replicas=1, packets=3, rx_loss=0.05),
    "quick": SweepShape(n_sites=2, receivers_per_site=2, n_replicas=2, packets=6, rx_loss=0.05),
    "full": SweepShape(n_sites=3, receivers_per_site=3, n_replicas=2, packets=10, rx_loss=0.08),
}

#: Offsets (after the first crash) for the double-failure variant's
#: second crash: one inside the failover window, one after promotion
#: has almost certainly completed (detection is bounded by
#: 2 x primary_timeout + failover_wait = 1.4 s under ``sweep_config``).
DOUBLE_OFFSETS = (0.9, 1.6)

#: When the ``--readopt`` variant wipe-restarts a follower: fixed at
#: mid active window so pushes keep flowing afterwards — the restarted
#: follower's regressed acknowledgement is what triggers re-adoption
#: and backfill, and that ack rides on the next push it receives.
READOPT_WIPE_AT = 1.0


# -- recording engine -------------------------------------------------------


class RecordingSimulator(Simulator):
    """The engine, recording every distinct schedule point."""

    def __init__(self) -> None:
        super().__init__()
        self.points: set[float] = set()

    def schedule(self, at, callback, *args):
        t = at if at > self.now else self.now
        self.points.add(round(t, _ROUND))
        return super().schedule(at, callback, *args)


# -- scenario ----------------------------------------------------------


def _spec(shape: SweepShape, seed: int, config: LbrmConfig) -> DeploymentSpec:
    return DeploymentSpec(
        n_sites=shape.n_sites,
        receivers_per_site=shape.receivers_per_site,
        n_replicas=shape.n_replicas,
        config=config,
        seed=seed,
    )


def _apply_receiver_loss(dep: LbrmDeployment, shape: SweepShape) -> None:
    """Receiver-only inbound loss: site loggers and the primary side stay
    loss-free so every crash point leaves a recoverable world."""
    if not shape.rx_loss:
        return
    for node in dep.receiver_nodes:
        dep.network.host(node.name).inbound_loss = BernoulliLoss(
            shape.rx_loss, dep.streams.stream(f"sweep-loss:{node.name}")
        )


def _send_times(shape: SweepShape) -> list[float]:
    span = ACTIVE_END - WARMUP
    return [
        round(WARMUP + (i + 0.5) * span / shape.packets, _ROUND)
        for i in range(shape.packets)
    ]


def _drive(dep: LbrmDeployment, shape: SweepShape) -> None:
    dep.start()
    for i, send_at in enumerate(_send_times(shape)):
        dep.advance(send_at - dep.sim.now)
        dep.send(f"sweep-{i}".encode())
    dep.advance(ACTIVE_END - dep.sim.now + DRAIN)


def enumerate_crash_points(shape: SweepShape, seed: int,
                           config: LbrmConfig | None = None) -> list[float]:
    """Replay the fault-free scenario under the recording engine and return
    every distinct schedule point in the crash window ``[0, ACTIVE_END]``."""
    config = config or sweep_config()
    sim = RecordingSimulator()
    dep = LbrmDeployment(_spec(shape, seed, config), sim=sim)
    _apply_receiver_loss(dep, shape)
    _drive(dep, shape)
    points = set(sim.points)
    points.update(_send_times(shape))  # the crash-just-before-send instants
    return sorted(t for t in points if 0.0 <= t <= ACTIVE_END)


# -- one replay ----------------------------------------------------------


@dataclass
class CrashOutcome:
    violations: list[Violation]
    digest: str
    promoted: str | None
    log_epoch: int


def _crash_current_primary(dep: LbrmDeployment) -> None:
    """Crash whichever node the sender currently trusts as primary (the
    double-failure variant's dynamic second target)."""
    assert dep.sender is not None
    current = dep.sender.primary
    assert dep.primary_node is not None
    for node in (dep.primary_node, *dep.replica_nodes):
        if node.name == current and node.alive:
            node.crash()
            return


def _wipe_restart_replica(dep: LbrmDeployment) -> None:
    """Wipe-restart the first live *follower* (the readopt variant).

    The target must still be in the replica role and must not be the
    node the sender currently trusts — wiping a promoted primary would
    simulate losing the only authoritative copy, which is outside the
    durable-log model this sweep proves things about.
    """
    assert dep.sender is not None
    current = dep.sender.primary
    for machine, node in zip(dep.replicas, dep.replica_nodes):
        if not node.alive or node.name == current:
            continue
        if machine.role is not LoggerRole.REPLICA:
            continue
        machine.wipe_restart(dep.sim.now)
        return


def run_crash_case(
    shape: SweepShape,
    seed: int,
    crash_at: float,
    config: LbrmConfig | None = None,
    second_crash_at: float | None = None,
    wipe_at: float | None = None,
) -> CrashOutcome:
    """One replay: crash the primary at ``crash_at``, grade with the oracle."""
    config = config or sweep_config()
    dep = LbrmDeployment(_spec(shape, seed, config))
    _apply_receiver_loss(dep, shape)
    # Scheduled before start: among equal-time events the crash fires
    # first (insertion-order tie-break), i.e. "just before" the point.
    assert dep.primary_node is not None
    dep.sim.schedule(crash_at, dep.primary_node.crash)
    if second_crash_at is not None:
        dep.sim.schedule(second_crash_at, _crash_current_primary, dep)
    if wipe_at is not None:
        dep.sim.schedule(wipe_at, _wipe_restart_replica, dep)
    oracle = ChaosOracle(dep)
    oracle.install()
    _drive(dep, shape)
    violations = oracle.finish()
    assert dep.sender is not None
    promoted = None
    if dep.sender.primary != dep.primary_node.name:
        promoted = str(dep.sender.primary)
    return CrashOutcome(
        violations=violations,
        digest=end_state_digest(
            dep,
            log_epoch=dep.sender.log_epoch,
            logs={
                node.name: machine.primary_seq
                for machine, node in zip(
                    [dep.primary, *dep.replicas], [dep.primary_node, *dep.replica_nodes]
                )
            },
        ),
        promoted=promoted,
        log_epoch=dep.sender.log_epoch,
    )


# -- the sweep ----------------------------------------------------------


def run_sweep_campaign(
    seed: int,
    tier: str = "quick",
    double: bool = False,
    max_points: int | None = None,
    readopt: bool = False,
) -> dict:
    """Enumerate crash points and replay the scenario once per point.

    Returns the (JSON-stable) report dict.  ``double=True`` runs the
    double-failure variant: two replicas with ``min_replicas_acked=2``
    and a second, dynamically targeted crash ``DOUBLE_OFFSETS`` after
    each point.  ``readopt=True`` additionally wipe-restarts one
    follower at ``READOPT_WIPE_AT`` in every replay: the commit point
    must never keep counting the vanished prefix (the stale
    FollowerState re-adoption path), so it also runs with two replicas
    and ``min_replicas_acked=2`` — the surviving follower keeps every
    committed packet reachable.
    """
    shape = TIERS[tier]
    if double or readopt:
        shape = SweepShape(
            n_sites=shape.n_sites,
            receivers_per_site=shape.receivers_per_site,
            n_replicas=max(shape.n_replicas, 2),
            packets=shape.packets,
            rx_loss=shape.rx_loss,
        )
    config = sweep_config(min_replicas_acked=2 if (double or readopt) else 1)
    wipe_at = round(READOPT_WIPE_AT, _ROUND) if readopt else None

    points = enumerate_crash_points(shape, seed, config)
    truncated = 0
    if max_points is not None and len(points) > max_points:
        # Even coverage of the window rather than a prefix: take every
        # k-th point.  The report records the cut so a capped run never
        # reads as exhaustive.
        step = len(points) / max_points
        kept = [points[int(i * step)] for i in range(max_points)]
        truncated = len(points) - len(kept)
        points = kept

    cases = []
    failures = []
    variants: list[float | None] = [None]
    if double:
        variants = [round(offset, _ROUND) for offset in DOUBLE_OFFSETS]
    for crash_at in points:
        for offset in variants:
            second = None if offset is None else round(crash_at + offset, _ROUND)
            outcome = run_crash_case(shape, seed, crash_at, config, second, wipe_at=wipe_at)
            cases.append({
                "crash_at": crash_at,
                "second_crash_at": second,
                "wipe_at": wipe_at,
                "digest": outcome.digest,
                "promoted": outcome.promoted,
                "log_epoch": outcome.log_epoch,
                "violations": [v.to_dict() for v in outcome.violations],
            })
            if outcome.violations:
                failures.append({
                    "crash_at": crash_at,
                    "second_crash_at": second,
                    "reproducer": (
                        f"repro failover-sweep --{tier} --seed {seed}"
                        + (" --double" if double else "")
                        + (" --readopt" if readopt else "")
                    ),
                })
    return {
        "sweep": {
            "seed": seed,
            "tier": tier,
            "double": double,
            "readopt": readopt,
            "wipe_at": wipe_at,
            "shape": {
                "n_sites": shape.n_sites,
                "receivers_per_site": shape.receivers_per_site,
                "n_replicas": shape.n_replicas,
                "packets": shape.packets,
                "rx_loss": shape.rx_loss,
            },
            "points": points,
            "points_truncated": truncated,
        },
        "cases": cases,
        "failures": failures,
        "totals": {
            "points": len(points),
            "replays": len(cases),
            "violations": sum(len(case["violations"]) for case in cases),
        },
    }


# -- CLI ----------------------------------------------------------


def build_sweep_parser(parser: argparse.ArgumentParser) -> None:
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument("--micro", action="store_const", const="micro", dest="tier",
                      help="smallest sweep (the tier-1 test shape)")
    tier.add_argument("--quick", action="store_const", const="quick", dest="tier",
                      help="CI sweep (default): 2 sites, 2 replicas, 6 packets")
    tier.add_argument("--full", action="store_const", const="full", dest="tier",
                      help="large sweep: 3 sites, 2 replicas, 10 packets")
    parser.set_defaults(tier="quick")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    parser.add_argument("--double", action="store_true",
                        help="double-failure variant: also crash the promoted primary")
    parser.add_argument("--readopt", action="store_true",
                        help="follower-restart variant: wipe one follower's state "
                             "mid-stream in every replay (exercises stale-state "
                             "re-adoption and backfill)")
    parser.add_argument("--max-points", type=int, default=None, metavar="N",
                        help="cap the replayed points at N (evenly spaced; "
                             "the report records the truncation)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write FAILOVER_SWEEP_seed<seed>.json into DIR")
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")


def run_sweep(args: argparse.Namespace) -> int:
    report = run_sweep_campaign(
        args.seed, tier=args.tier, double=args.double,
        max_points=args.max_points, readopt=args.readopt,
    )
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"FAILOVER_SWEEP_seed{args.seed}.json").write_text(text + "\n")
    if args.json:
        print(text)
    else:
        meta = report["sweep"]
        totals = report["totals"]
        print(
            f"failover sweep: seed={meta['seed']} tier={meta['tier']}"
            + (" double" if meta["double"] else "")
            + (" readopt" if meta["readopt"] else "")
        )
        print(
            f"  points={totals['points']} replays={totals['replays']} "
            f"violations={totals['violations']}"
            + (f" (truncated {meta['points_truncated']})" if meta["points_truncated"] else "")
        )
        for failure in report["failures"]:
            print(
                f"FAILURE at crash_at={failure['crash_at']} "
                f"second={failure['second_crash_at']}: {failure['reproducer']}"
            )
    return 1 if report["failures"] else 0
