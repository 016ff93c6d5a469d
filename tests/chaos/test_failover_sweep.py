"""Exhaustive crash-point failover sweep: the zero-loss proof (I1–I6).

The quick-tier tests here *are* the acceptance gate for the LLFT-grade
failover work: the primary is crashed at **every** distinct schedule
point of the scenario (not a sample), each replay is graded by the
full ChaosOracle — delivery (I1), silence (I2), log safety and
completeness (I3), monotone promotion (I4), and the commit-point
invariant I6 (no committed packet lost, recovery stalls bounded).
The ``slow``-marked tests extend the proof to the full shape
and to double failures (primary, then the freshly promoted replica).
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.sweep import (
    TIERS,
    enumerate_crash_points,
    run_crash_case,
    run_sweep_campaign,
    sweep_config,
)


def _assert_clean(report: dict) -> None:
    problems = []
    for case in report["cases"]:
        for violation in case["violations"]:
            problems.append(f"crash_at={case['crash_at']}: {violation}")
    assert not problems, "sweep violations:\n" + "\n".join(problems[:20])
    assert not report["failures"]
    assert report["totals"]["replays"] == len(report["cases"])  # one replay per case


def test_micro_sweep_is_exhaustive_and_clean():
    """Tier-1 gate: every schedule point of the micro scenario survives a
    primary crash with zero I1–I6 violations."""
    report = run_sweep_campaign(0, tier="micro")
    assert report["totals"]["points"] > 20  # genuinely a sweep, not a sample
    assert report["sweep"]["points_truncated"] == 0
    _assert_clean(report)


def test_engines_enumerate_identical_point_lists():
    """Two recording engines, one scenario: the point list is a function
    of the seed (nothing leaks from one in-process run into the next)."""
    shape = TIERS["micro"]
    first = enumerate_crash_points(shape, 3)
    assert first == enumerate_crash_points(shape, 3)
    assert first == sorted(set(first))  # sorted, deduplicated


def test_crash_points_cover_send_instants():
    """The crash-just-before-a-send instants are always in the point set."""
    from repro.chaos.sweep import _send_times

    shape = TIERS["micro"]
    points = set(enumerate_crash_points(shape, 0))
    assert set(_send_times(shape)) <= points


def test_single_replay_promotes_with_new_epoch():
    shape = TIERS["micro"]
    points = enumerate_crash_points(shape, 0)
    crash_at = points[len(points) // 2]  # mid-stream, data outstanding
    outcome = run_crash_case(shape, 0, crash_at)
    assert not outcome.violations
    assert outcome.promoted == "replica0"
    assert outcome.log_epoch == 2  # configured primary was term 1


def test_same_seed_sweep_reports_are_byte_identical():
    first = json.dumps(run_sweep_campaign(5, tier="micro"), sort_keys=True, indent=2)
    second = json.dumps(run_sweep_campaign(5, tier="micro"), sort_keys=True, indent=2)
    assert first == second


def test_max_points_truncation_is_recorded_not_silent():
    report = run_sweep_campaign(0, tier="micro", max_points=10)
    assert report["totals"]["points"] == 10
    assert report["sweep"]["points_truncated"] > 0
    _assert_clean(report)


def test_sweep_detects_broken_replication():
    """Sabotage check: with replication silently disabled (followers drop
    every REPL_UPDATE) the sweep must report violations — the promoted
    primary can never catch up, tripping I6's stall bound.  Proof the
    oracle is actually wired to the replays, not rubber-stamping them."""
    from repro.core.logger import LogServer

    original = LogServer._on_repl_update
    LogServer._on_repl_update = lambda self, packet, src, now: []
    try:
        report = run_sweep_campaign(0, tier="micro")
    finally:
        LogServer._on_repl_update = original
    assert report["failures"]
    kinds = {
        v["invariant"]
        for case in report["cases"]
        for v in case["violations"]
    }
    assert "failover-stall" in kinds


def test_follower_restart_readoption_and_backfill():
    """A follower that restarts empty mid-stream is detected via its
    regressed ACK, re-adopted with fresh state, and backfilled — the
    manager's watermark must never exceed what the follower actually
    holds (the stale-FollowerState bug kept the old watermark, which
    both inflated the commit point and starved the backfill)."""
    from repro.simnet.deploy import DeploymentSpec, LbrmDeployment

    config = sweep_config(min_replicas_acked=2)
    dep = LbrmDeployment(DeploymentSpec(
        n_sites=1, receivers_per_site=1, n_replicas=2, config=config, seed=7,
    ))
    dep.start()
    for i in range(4):
        dep.advance(0.3)
        dep.send(f"pkt-{i}".encode())
    dep.advance(0.5)  # replication settles
    assert dep.primary is not None and dep.primary.replication is not None
    mgr = dep.primary.replication
    wiped, name = dep.replicas[0], dep.replica_nodes[0].name
    assert mgr.acked_by(name) == dep.sender.seq  # caught up pre-wipe

    wiped.wipe_restart(dep.sim.now)
    assert wiped.primary_seq == 0
    dep.send(b"after-restart")  # next push carries the regressed ACK back
    dep.advance(2.0)

    assert mgr.stats["members_readopted"] == 1
    assert wiped.primary_seq == dep.sender.seq  # vanished prefix backfilled
    assert mgr.acked_by(name) == wiped.primary_seq  # watermark is honest


def test_readopt_sweep_is_clean():
    """Every crash point survives a follower wipe-restart mid-stream:
    re-adoption and backfill keep I1–I6 green."""
    report = run_sweep_campaign(0, tier="micro", readopt=True)
    assert report["sweep"]["readopt"] is True
    assert report["sweep"]["shape"]["n_replicas"] >= 2
    _assert_clean(report)


@pytest.mark.slow
def test_full_sweep_is_clean():
    report = run_sweep_campaign(0, tier="full")
    assert report["totals"]["points"] > 50
    _assert_clean(report)


@pytest.mark.slow
def test_double_failure_sweep_is_clean():
    """Primary crash followed by a crash of whatever node the sender then
    trusts: with min_replicas_acked=2 the release point never passes
    what *both* replicas hold, so any crash pair must be zero-loss."""
    report = run_sweep_campaign(0, tier="quick", double=True)
    assert report["sweep"]["double"] is True
    assert report["sweep"]["shape"]["n_replicas"] >= 2
    _assert_clean(report)
    # The variant genuinely exercises second failovers: some replay must
    # end in a term beyond the first promotion's.
    assert any(case["log_epoch"] >= 3 for case in report["cases"])


def test_double_failure_config_requires_two_acks():
    config = sweep_config(min_replicas_acked=2)
    assert config.replication.min_replicas_acked == 2
