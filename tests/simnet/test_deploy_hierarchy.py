"""k-level logger trees on the simulated WAN (DESIGN §11)."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment


def _spec(**kwargs):
    kwargs.setdefault("n_sites", 9)
    kwargs.setdefault("receivers_per_site", 1)
    kwargs.setdefault("depth", 3)
    kwargs.setdefault("fanout", 3)
    return DeploymentSpec(**kwargs)


def test_flat_default_builds_no_hierarchy():
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=1))
    assert dep.hierarchy is None
    assert dep.interior_loggers == []
    assert dep.receivers[0].logger_chain == ("site1-logger", "primary")


def test_depth_three_builds_hubs_and_chains():
    dep = LbrmDeployment(_spec())
    assert dep.hierarchy is not None
    names = [m.addr_token for m in dep.interior_loggers]
    assert names == ["hub1-0-logger", "hub1-1-logger", "hub1-2-logger"]
    assert all(m._level == 1 for m in dep.interior_loggers)
    # Chains walk leaf -> hub -> primary, and the leaf's upstream parent
    # is its hub.
    for i, receiver in enumerate(dep.receivers):
        chain = receiver.logger_chain
        assert len(chain) == 3
        assert chain[0] == f"site{i + 1}-logger"
        assert chain[1].startswith("hub1-")
        assert chain[-1] == "primary"
    assert dep.site_loggers[0]._parent == "hub1-0-logger"
    # Hubs are hosted at the site of their first descendant leaf.
    assert dep.network.host("hub1-0-logger").site.name == "site1"
    assert dep.network.host("hub1-1-logger").site.name == "site4"


def test_depth_four_builds_two_interior_levels():
    dep = LbrmDeployment(
        DeploymentSpec(n_sites=8, receivers_per_site=1, depth=4, fanout=2)
    )
    tree = dep.hierarchy.manager.tree
    assert len(tree.at_level(1)) == 2
    assert len(tree.at_level(2)) == 4
    chain = dep.receivers[0].logger_chain
    assert len(chain) == 4 and chain[-1] == "primary"


def test_depth_conflicts_rejected():
    with pytest.raises(ConfigError):
        LbrmDeployment(_spec(fanout=1))
    with pytest.raises(ConfigError):
        LbrmDeployment(_spec(secondary_loggers=False))
    with pytest.raises(ConfigError):
        LbrmDeployment(_spec(depth=1))


def test_recovery_through_hub_after_site_burst():
    dep = LbrmDeployment(_spec(seed=7))
    dep.start()
    dep.advance(0.5)
    dep.send(b"a")
    dep.advance(0.2)
    dep.burst_site("site5", 0.3)
    dep.send(b"b")
    dep.advance(0.2)
    dep.send(b"c")
    dep.advance(10.0)
    assert dep.receivers_missing() == 0
    assert dep.receivers_with(2) == dep.spec.n_sites


def test_hub_crash_reparents_subtree_and_recovers():
    dep = LbrmDeployment(_spec(seed=11))
    dep.start()
    dep.advance(0.5)
    dep.send(b"a")
    dep.advance(0.3)
    dep.node("hub1-1-logger").crash()
    dep.burst_site("site5", 0.3)
    dep.send(b"b")
    dep.advance(0.3)
    dep.send(b"c")
    dep.advance(15.0)
    tree = dep.hierarchy.manager.tree
    for leaf in ("site4-logger", "site5-logger", "site6-logger"):
        assert tree.parent(leaf) != "hub1-1-logger"
    moves = dep.hierarchy.manager.moves
    assert moves and all(m.reason == "crash" for m in moves)
    assert dep.receivers_missing() == 0


def test_engines_agree_on_reparenting():
    """Two deployments (each with its own engine), one seed: the same tree
    surgery, move for move."""

    def run():
        dep = LbrmDeployment(_spec(seed=3, n_replicas=1))
        dep.start()
        dep.advance(0.5)
        for i in range(5):
            dep.send(b"x%d" % i)
            dep.advance(0.3)
        dep.node("hub1-0-logger").crash()
        dep.burst_site("site2", 0.4)
        for i in range(5, 10):
            dep.send(b"x%d" % i)
            dep.advance(0.3)
        dep.advance(15.0)
        snap = dep.hierarchy.to_dict()
        return (
            dep.receivers_missing(),
            snap["tree"],
            snap["moves"],
            dep.network.stats["delivered"],
        )

    assert run() == run()


def test_hierarchy_tap_sees_the_same_run_with_and_without_batching():
    """The hierarchy runtime's observer sees a co-timed batch in one call,
    before anyone in it receives; the per-receiver fan-out shows it one
    host at a time, each just before that host's receive.  Through a hub
    outage and a forced re-parent, the tree, the trace and every
    delivery are the same either way."""

    def run(batch: bool):
        dep = LbrmDeployment(_spec(seed=13, receivers_per_site=3))
        dep.network.batch_delivery = batch
        dep.start()
        dep.advance(0.5)
        for i in range(4):
            dep.send(b"x%d" % i)
            dep.advance(0.3)
        dep.node("hub1-1-logger").crash()
        dep.burst_site("site5", 0.4)
        for i in range(4, 8):
            dep.send(b"x%d" % i)
            dep.advance(0.3)
        assert dep.hierarchy.force_reparent("site2-logger") is not None
        dep.burst_site("site2", 0.3)
        for i in range(8, 12):
            dep.send(b"x%d" % i)
            dep.advance(0.3)
        dep.advance(15.0)
        assert dep.receivers_missing() == 0
        delivered = {n.name: [tuple(d) for d in n.delivered] for n in dep.all_nodes()}
        return dep.hierarchy.to_dict(), dep.trace.counts, delivered

    batched, reference = run(True), run(False)
    assert batched == reference
    snap = batched[0]
    assert {m["reason"] for m in snap["moves"]} >= {"crash", "forced"}
    assert snap["stats"]["rtt_samples"] > 0


def test_saturation_resheds_children():
    # Cut site1's inbound tail for a long window: the hub hosted there
    # misses the whole window, and once the first post-burst heartbeat
    # reveals the hole its upstream-repair queue jumps over the
    # threshold.  A fast rescore cadence catches the queue while the
    # repairs are still in flight and sheds the hub's children.
    from repro.core.config import HierarchyConfig, LbrmConfig

    config = LbrmConfig(
        hierarchy=HierarchyConfig(rescore_interval=0.02, saturation_outstanding=2)
    )
    dep = LbrmDeployment(_spec(seed=5, config=config))
    dep.start()
    dep.advance(0.5)
    dep.send(b"a")
    dep.advance(0.2)
    dep.burst_site("site1", 3.0)
    for i in range(8):
        dep.send(b"b%d" % i)
        dep.advance(0.2)
    dep.advance(15.0)
    assert dep.hierarchy.manager.stats["reparents_saturation"] >= 1
    assert dep.receivers_missing() == 0


def test_reparent_with_request_in_flight_starts_the_new_link_clean():
    """A leaf is moved while its upstream NACK is unanswered (the repair
    dies on its tail circuit): the retry goes to the new parent and is
    that link's first attempt, not evidence of loss on it."""
    dep = LbrmDeployment(_spec(seed=7))
    manager = dep.hierarchy.manager
    leaf, old = "site5-logger", "hub1-1-logger"
    dep.start()
    dep.advance(0.5)
    dep.send(b"a")
    dep.advance(0.2)
    dep.burst_site("site5", 0.05)
    dep.send(b"b")  # lost for all of site5
    dep.advance(0.2)
    dep.send(b"c")  # reveals the hole: the leaf NACKs its hub for seq 2
    dep.advance(0.05)
    dep.burst_site("site5", 0.1)  # the hub's repair will die on the way in
    while not manager.has_outstanding(leaf, 2):  # the NACK reaches the hub
        dep.advance(0.005)
        assert dep.sim.now < 2.0
    assert manager.tree.parent(leaf) == old
    move = dep.hierarchy.force_reparent(leaf)
    assert move is not None and move.old_parent == old
    assert not manager.has_outstanding(leaf, 2)
    dep.advance(10.0)
    assert dep.receivers_missing() == 0
    fresh = manager.link(leaf, move.new_parent)
    assert fresh.attempts >= 1
    assert fresh.retries == 0 and fresh.loss_rate == 0.0
