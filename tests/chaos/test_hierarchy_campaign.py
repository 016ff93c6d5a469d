"""The k-level chaos campaign: tree faults, determinism, oracle wiring."""

from __future__ import annotations

import json
import random

import pytest

from repro.chaos.campaign import run_campaign, run_case
from repro.chaos.controller import ChaosController
from repro.chaos.hierarchy import HIERARCHY_CHAOS, TIERS, sample_hierarchy_schedule
from repro.chaos.schedule import Fault, FaultSchedule, TREE_KINDS
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment


def test_reparent_fault_needs_target():
    with pytest.raises(ValueError, match="needs a target"):
        Fault("reparent", 1.0)


def test_tree_faults_property_selects_reparents():
    schedule = FaultSchedule(faults=(
        Fault("reparent", 1.0, "site1-logger"),
        Fault("crash", 2.0, "site1-rx0"),
    ))
    assert [f.kind for f in schedule.tree_faults] == ["reparent"]
    assert TREE_KINDS == {"reparent"}


def test_reparent_fault_moves_the_edge():
    dep = LbrmDeployment(
        DeploymentSpec(n_sites=6, receivers_per_site=1, depth=3, fanout=3, seed=1)
    )
    schedule = FaultSchedule(faults=(Fault("reparent", 1.0, "site1-logger"),))
    controller = ChaosController(dep, schedule)
    controller.install()
    dep.start()
    before = dep.hierarchy.manager.tree.parent("site1-logger")
    dep.advance(2.0)
    assert controller.faults_injected == 1
    assert [f.kind for _t, f in controller.applied] == ["reparent"]
    moves = dep.hierarchy.manager.moves
    forced = [m for m in moves if m.reason == "forced"]
    assert len(forced) == 1
    assert forced[0].child == "site1-logger" and forced[0].old_parent == before
    # The mutation may later be *reverted* by the cost rescore (the hub
    # shares site1's LAN, so hysteresis clears) — that is self-healing,
    # not a bug.  What must always hold: receivers ride the current tree.
    assert dep.receivers[0].logger_chain == dep.hierarchy.manager.tree.chain("site1-logger")


def test_reparent_fault_is_uncounted_noop_on_flat_deployment():
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=1))
    assert dep.hierarchy is None
    schedule = FaultSchedule(faults=(Fault("reparent", 1.0, "site1-logger"),))
    controller = ChaosController(dep, schedule)
    controller.install()
    dep.start()
    dep.advance(2.0)
    dep.send(b"x")
    dep.advance(5.0)
    assert controller.faults_injected == 0
    assert dep.receivers_missing() == 0


def test_sampler_always_disturbs_the_tree():
    shape = TIERS["quick"]
    hubs = set(shape.hubs())
    for seed in range(12):
        schedule = sample_hierarchy_schedule(random.Random(f"t:{seed}"), shape)
        touches_tree = any(
            f.kind == "reparent" or (f.kind in {"crash", "restart"} and f.target in hubs)
            for f in schedule.faults
        )
        assert touches_tree, schedule.to_dict()
        # Recoverable by construction: never the primary or the source.
        assert all(f.target not in {"primary", "sender"} for f in schedule.faults)
        permanent_hub_crashes = sum(
            1
            for f in schedule.faults
            if f.kind == "crash" and f.target in hubs
            and not any(
                g.kind == "restart" and g.target == f.target and g.at > f.at
                for g in schedule.faults
            )
        )
        assert permanent_hub_crashes <= 1


def test_same_seed_campaigns_are_byte_identical():
    kw = dict(tier="quick", runs=2, campaign=HIERARCHY_CHAOS)
    first = json.dumps(run_campaign(7, **kw), sort_keys=True, indent=2)
    second = json.dumps(run_campaign(7, **kw), sort_keys=True, indent=2)
    assert first == second


def test_quick_campaign_is_clean_and_engines_agree():
    """The campaign is clean, and a second engine — a replay of the
    reported (case_seed, schedule) through ``run_case``, which is what a
    reproducer does — agrees with the campaign's own run."""
    report = run_campaign(0, tier="quick", runs=1, campaign=HIERARCHY_CHAOS)
    assert report["totals"]["violations"] == 0
    assert not report["failures"]
    (case,) = report["cases"]
    replay = run_case(
        TIERS["quick"], FaultSchedule.from_dict(case["schedule"]), case["case_seed"]
    )
    # The digest folds in the hierarchy snapshot, so agreement here means
    # both runs performed the same tree surgery.
    assert (replay.digest, replay.reparents) == (case["digest"], case["reparents"])
    assert report["totals"]["reparents"] == case["reparents"] > 0


def test_flat_and_tree_campaigns_differ_only_by_their_data():
    """One loop: the flat report carries no tree keys, the tree report
    carries them in the shape, every case and the totals."""
    flat = run_campaign(0, tier="quick", runs=1)
    tree = run_campaign(0, tier="quick", runs=1, campaign=HIERARCHY_CHAOS)
    assert set(tree["cases"][0]) - set(flat["cases"][0]) == {"reparents"}
    assert set(tree["totals"]) - set(flat["totals"]) == {"reparents"}
    assert set(tree["campaign"]["shape"]) - set(flat["campaign"]["shape"]) == {"depth", "fanout"}


def test_case_digest_covers_tree_state():
    shape = TIERS["quick"]
    schedule = FaultSchedule(faults=(Fault("reparent", 2.0, "site2-logger"),))
    with_fault = run_case(shape, schedule, case_seed=9)
    without = run_case(shape, FaultSchedule(), case_seed=9)
    assert not with_fault.violations and not without.violations
    assert with_fault.reparents >= 1
    # Same receiver contents, different tree: digests must differ.
    assert with_fault.digest != without.digest
