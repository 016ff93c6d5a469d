"""Unit tests for the k-level repair-tree model (core/hierarchy.py)."""

import pytest

from repro import obs
from repro.core.errors import ConfigError
from repro.core.hierarchy import (
    LoggerTree,
    TreeManager,
    build_tree,
    interior_name,
    plan_level_sizes,
)


def _manager(tree, **kwargs):
    kwargs.setdefault("fanout", 4)
    return TreeManager(tree, **kwargs)


class TestPlanLevelSizes:
    def test_flat_two_level_has_no_interior(self):
        assert plan_level_sizes(50, depth=2, fanout=8) == {}

    def test_three_level_counts(self):
        # 100 leaves, fanout 8 -> 13 hubs at level 1.
        assert plan_level_sizes(100, depth=3, fanout=8) == {1: 13}

    def test_four_level_counts(self):
        # 1000 leaves / 10 -> 100 metro hubs / 10 -> 10 region hubs.
        assert plan_level_sizes(1000, depth=4, fanout=10) == {2: 100, 1: 10}

    def test_tiny_group_never_needs_more_hubs_than_leaves(self):
        assert plan_level_sizes(1, depth=4, fanout=4) == {2: 1, 1: 1}

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            plan_level_sizes(10, depth=1, fanout=4)
        with pytest.raises(ConfigError):
            plan_level_sizes(10, depth=3, fanout=1)
        with pytest.raises(ConfigError):
            plan_level_sizes(0, depth=3, fanout=4)


class TestBuildTree:
    def test_flat_tree_parents_everything_to_root(self):
        tree = build_tree("primary", [f"site{i}-logger" for i in range(5)], depth=2, fanout=8)
        for i in range(5):
            assert tree.parent(f"site{i}-logger") == "primary"
            assert tree.chain(f"site{i}-logger") == (f"site{i}-logger", "primary")

    def test_three_level_respects_fanout(self):
        leaves = [f"site{i}-logger" for i in range(20)]
        tree = build_tree("primary", leaves, depth=3, fanout=4)
        hubs = tree.at_level(1)
        assert len(hubs) == 5
        for hub in hubs:
            assert tree.parent(hub) == "primary"
            assert 1 <= len(tree.children(hub)) <= 4
        # Every leaf hangs off exactly one hub and the grouping is contiguous.
        assert sorted(c for h in hubs for c in tree.children(h)) == sorted(leaves)
        assert tree.parent("site0-logger") == tree.parent("site1-logger")

    def test_chain_walks_every_level(self):
        leaves = [f"site{i}-logger" for i in range(16)]
        tree = build_tree("primary", leaves, depth=4, fanout=4)
        chain = tree.chain("site0-logger")
        assert chain[0] == "site0-logger"
        assert chain[-1] == "primary"
        assert len(chain) == 4
        assert [tree.level(n) for n in chain] == [3, 2, 1, 0]

    def test_interior_names_are_canonical(self):
        tree = build_tree("primary", [f"s{i}" for i in range(9)], depth=3, fanout=3)
        assert tree.at_level(1) == tuple(sorted(interior_name(1, i) for i in range(3)))

    def test_deterministic(self):
        leaves = [f"site{i}-logger" for i in range(33)]
        a = build_tree("primary", leaves, depth=3, fanout=5).to_dict()
        b = build_tree("primary", leaves, depth=3, fanout=5).to_dict()
        assert a == b


class TestLoggerTree:
    def test_reparent_moves_subtree(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = tree.at_level(1)
        leaf = tree.children(hubs[0])[0]
        tree.reparent(leaf, hubs[1])
        assert tree.parent(leaf) == hubs[1]
        assert leaf in tree.children(hubs[1])
        assert leaf not in tree.children(hubs[0])

    def test_reparent_rejects_cycles_and_bad_levels(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hub = tree.at_level(1)[0]
        leaf = tree.children(hub)[0]
        with pytest.raises(ConfigError):
            tree.reparent(hub, leaf)  # child of own descendant
        with pytest.raises(ConfigError):
            tree.reparent(leaf, tree.children(hub)[1])  # same level
        with pytest.raises(ConfigError):
            tree.reparent("primary", hub)

    def test_leaf_may_attach_directly_to_root(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        leaf = tree.at_level(2)[0]
        tree.reparent(leaf, "primary")
        assert tree.chain(leaf) == (leaf, "primary")

    def test_subtree_and_ancestry(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hub = tree.at_level(1)[0]
        sub = tree.subtree(hub)
        assert hub in sub
        assert all(tree.is_ancestor(hub, leaf) for leaf in sub if leaf != hub)
        assert tree.is_ancestor("primary", hub)
        assert not tree.is_ancestor(hub, "primary")


class TestMakespan:
    def test_empty_and_flat(self):
        tree = LoggerTree("primary")
        mgr = _manager(tree, serve_cost=0.001, seed_cost=lambda c, p: 0.05)
        assert mgr.makespan() == 0.0
        tree.add("a", "primary", 1)
        tree.add("b", "primary", 1)
        # Two children at cost 0.05: slots cost 0.001 and 0.002 serially.
        assert mgr.makespan() == pytest.approx(0.052)

    def test_tree_beats_flat_when_serialization_dominates(self):
        leaves = [f"s{i}" for i in range(64)]
        serve = 0.01
        flat = _manager(
            build_tree("primary", leaves, depth=2, fanout=8),
            fanout=64,
            serve_cost=serve,
            seed_cost=lambda c, p: 0.02,
        )
        deep = _manager(
            build_tree("primary", leaves, depth=3, fanout=8),
            fanout=8,
            serve_cost=serve,
            seed_cost=lambda c, p: 0.02,
        )
        assert deep.makespan() < flat.makespan()

    def test_measured_cost_feeds_objective(self):
        tree = LoggerTree("primary")
        tree.add("a", "primary", 1)
        mgr = _manager(tree, serve_cost=0.0, seed_cost=lambda c, p: 0.05)
        mgr.note_request("a", [1], now=0.0)
        mgr.note_repair("a", 1, now=0.4)
        assert mgr.makespan() > 0.05  # widened toward the observed 0.4s RTT


class TestRescore:
    def test_healthy_tree_is_sticky(self):
        tree = build_tree("primary", [f"s{i}" for i in range(16)], depth=3, fanout=4)
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        live = frozenset(tree.nodes)
        assert mgr.rescore(1.0, live=live) == []
        assert mgr.rescore(2.0, live=live) == []

    def test_dead_hub_reparents_children_to_surviving_hub(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=8)
        hubs = tree.at_level(1)
        assert len(hubs) == 1  # 8 leaves / fanout 8 -> one hub; force two
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = tree.at_level(1)
        dead, alive = hubs[0], hubs[1]
        orphans = tree.children(dead)
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        live = frozenset(n for n in tree.nodes if n != dead)
        moves = mgr.rescore(3.0, live=live)
        assert {m.child for m in moves} == set(orphans)
        assert all(m.new_parent == alive and m.reason == "crash" for m in moves)
        assert all(tree.parent(c) == alive for c in orphans)

    def test_all_hubs_dead_falls_back_to_root(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = set(tree.at_level(1))
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        live = frozenset(n for n in tree.nodes if n not in hubs)
        moves = mgr.rescore(3.0, live=live)
        assert {m.child for m in moves} == set(tree.at_level(2))
        assert all(m.new_parent == "primary" for m in moves)

    def test_saturated_hub_sheds_children(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = tree.at_level(1)
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        live = frozenset(tree.nodes)
        moves = mgr.rescore(3.0, live=live, saturated=frozenset({hubs[0]}))
        assert moves and all(m.reason == "saturation" for m in moves)
        assert all(tree.parent(m.child) == hubs[1] for m in moves)

    def test_cost_move_needs_hysteresis_margin(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = tree.at_level(1)
        leaf = tree.children(hubs[0])[0]
        # seed_cost is a static prior (TreeManager docstring): the
        # alternative starts 10% cheaper and stays that way.
        mgr = _manager(
            tree, hysteresis=1.5, serve_cost=0.0,
            seed_cost=lambda c, p: 0.045 if (c, p) == (leaf, hubs[1]) else 0.05,
        )
        live = frozenset(tree.nodes)
        assert mgr.rescore(1.0, live=live) == []  # 10% better: inside hysteresis
        # The incumbent link degrades the way the runtime reports it:
        # requests that had to be re-sent.
        mgr.note_request(leaf, [1, 2], now=1.0)
        mgr.note_retry(leaf, [1, 2])
        assert mgr.cost(leaf, hubs[0]) >= 5 * mgr.cost(leaf, hubs[1])  # 5x better: move
        moves = mgr.rescore(2.0, live=live)
        assert [m.child for m in moves] == [leaf]
        assert moves[0].reason == "cost"

    def test_rescore_is_deterministic(self):
        def run():
            tree = build_tree("primary", [f"s{i}" for i in range(12)], depth=3, fanout=4)
            mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
            dead = tree.at_level(1)[0]
            live = frozenset(n for n in tree.nodes if n != dead)
            moves = mgr.rescore(1.0, live=live)
            return [m.to_dict() for m in moves], tree.to_dict()

        assert run() == run()


class TestIncrementalRescore:
    """rescore examines only children whose decision inputs changed."""

    def _tree(self):
        return build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)

    def _examined(self, reg):
        return reg.counter_value("hierarchy.rescore_examined")

    def test_quiet_epochs_examine_nothing(self):
        with obs.recording() as reg:
            tree = self._tree()
            mgr = _manager(tree)
            live = frozenset(tree.nodes)
            mgr.rescore(1.0, live=live)
            assert self._examined(reg) == 10  # first pass: every non-root node
            mgr.rescore(2.0, live=live)
            mgr.rescore(3.0, live=frozenset(tree.nodes))  # equal set, new object
            assert self._examined(reg) == 10
            assert reg.counter_value("hierarchy.rescore_full_passes") == 1
            assert reg.counter_value("hierarchy.rescores") == 3

    def test_touched_link_reexamines_its_child_only(self):
        with obs.recording() as reg:
            tree = self._tree()
            mgr = _manager(tree)
            live = frozenset(tree.nodes)
            mgr.rescore(1.0, live=live)
            mgr.note_request("s3", [1], now=1.0)
            mgr.note_repair("s3", 1, now=1.05)
            assert mgr.rescore(2.0, live=live) == []
            assert self._examined(reg) == 10 + 1

    def test_held_link_reference_still_marks_its_child(self):
        tree = self._tree()
        hubs = tree.at_level(1)
        leaf = tree.children(hubs[0])[0]
        mgr = _manager(tree, serve_cost=0.0)
        live = frozenset(tree.nodes)
        link = mgr.link(leaf, hubs[0])
        link.attempts += 1
        assert mgr.rescore(1.0, live=live) == []
        assert mgr.rescore(2.0, live=live) == []
        for _ in range(6):
            link.record_retry()  # no manager call in between
        moves = mgr.rescore(3.0, live=live)
        assert [(m.child, m.new_parent, m.reason) for m in moves] == [(leaf, hubs[1], "cost")]

    def test_live_saturated_or_tree_change_forces_a_full_pass(self):
        with obs.recording() as reg:
            tree = self._tree()
            hubs = tree.at_level(1)
            mgr = _manager(tree)
            live = frozenset(tree.nodes)
            mgr.rescore(1.0, live=live)
            mgr.rescore(2.0, live=live, saturated=frozenset({"nobody"}))
            mgr.rescore(3.0, live=live | {"newcomer"}, saturated=frozenset({"nobody"}))
            tree.reparent(tree.children(hubs[0])[0], hubs[1])  # behind the manager's back
            mgr.rescore(4.0, live=live | {"newcomer"}, saturated=frozenset({"nobody"}))
            assert reg.counter_value("hierarchy.rescore_full_passes") == 4
            assert self._examined(reg) == 40

    def test_move_mid_pass_examines_everyone_after_it_and_next_pass(self):
        with obs.recording() as reg:
            tree = self._tree()
            hubs = tree.at_level(1)
            mgr = _manager(tree, serve_cost=0.0)
            live = frozenset(tree.nodes)
            mgr.rescore(1.0, live=live)
            mover = tree.children(hubs[0])[1]  # s1: s0 sorts before it, s2.. after
            mgr.note_request(mover, [1, 2], now=1.0)
            mgr.note_retry(mover, [1, 2])
            moves = mgr.rescore(2.0, live=live)
            assert [m.child for m in moves] == [mover]
            assert self._examined(reg) == 10 + 1 + 6  # the mover, then s2..s7
            mgr.rescore(3.0, live=live)  # loads changed under s0 too
            assert self._examined(reg) == 10 + 7 + 10
            mgr.rescore(4.0, live=live)
            assert self._examined(reg) == 10 + 7 + 10


class TestForceReparent:
    def test_moves_to_best_alternative(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = tree.at_level(1)
        leaf = tree.children(hubs[0])[0]
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        move = mgr.force_reparent(leaf, live=frozenset(tree.nodes), now=1.0)
        assert move is not None and move.reason == "forced"
        assert tree.parent(leaf) == hubs[1]

    def test_no_alternative_returns_none(self):
        tree = build_tree("primary", [f"s{i}" for i in range(4)], depth=2, fanout=4)
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        # Only possible parent is the root it already has.
        assert mgr.force_reparent("s0", live=frozenset(tree.nodes), now=1.0) is None
        assert mgr.force_reparent("primary", live=frozenset(tree.nodes), now=1.0) is None
        assert mgr.force_reparent("missing", live=frozenset(tree.nodes), now=1.0) is None


class TestLinkMeasurement:
    def test_retry_inflates_cost(self):
        tree = build_tree("primary", [f"s{i}" for i in range(4)], depth=2, fanout=4)
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        base = mgr.cost("s0", "primary")
        mgr.note_request("s0", [1, 2], now=0.0)
        mgr.note_retry("s0", [1, 2])
        assert mgr.cost("s0", "primary") > base
        assert mgr.stats["retries_seen"] == 2

    def test_outstanding_table_is_capped_by_pruning_stale_entries(self):
        """4096 entries trigger a prune of everything older than 30 s."""
        tree = build_tree("primary", [f"s{i}" for i in range(4)], depth=2, fanout=4)
        mgr = _manager(tree)
        live = frozenset(tree.nodes)
        mgr.note_request("s0", range(1, 4001), now=0.0)    # never answered
        mgr.rescore(100.0, live=live)
        assert mgr.has_outstanding("s0", 1)                  # under the cap: kept
        mgr.note_request("s1", range(1, 201), now=99.0)     # 4200 entries: over it
        mgr.rescore(100.0, live=live)
        assert not mgr.has_outstanding("s0", 1) and not mgr.has_outstanding("s0", 4000)
        assert mgr.has_outstanding("s1", 1) and mgr.has_outstanding("s1", 200)
        assert len(mgr._outstanding) == 200

    def test_request_outstanding_at_old_parent_is_new_on_the_new_link(self):
        """After a re-parent, the first NACK to the new parent for a seq
        still unanswered by the old one is that link's first attempt —
        booking it as a retry made a fresh link look 75% lossy."""
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = tree.at_level(1)
        leaf = tree.children(hubs[0])[0]
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        mgr.note_request(leaf, [7], now=0.0)
        assert mgr.has_outstanding(leaf, 7)
        tree.reparent(leaf, hubs[1])
        assert not mgr.has_outstanding(leaf, 7)  # the runtime will note_request, not note_retry
        mgr.note_request(leaf, [7], now=0.5)
        assert mgr.has_outstanding(leaf, 7)
        fresh = mgr.link(leaf, hubs[1])
        assert (fresh.attempts, fresh.retries, fresh.loss_rate) == (1, 0, 0.0)
        assert mgr.cost(leaf, hubs[1]) == pytest.approx(0.05)
        mgr.note_repair(leaf, 7, now=0.58)  # and the answer is credited to the new link
        assert mgr.stats["rtt_samples"] == 1

    def test_repair_after_reparent_does_not_credit_new_link(self):
        tree = build_tree("primary", [f"s{i}" for i in range(8)], depth=3, fanout=4)
        hubs = tree.at_level(1)
        leaf = tree.children(hubs[0])[0]
        mgr = _manager(tree, seed_cost=lambda c, p: 0.05)
        mgr.note_request(leaf, [7], now=0.0)
        tree.reparent(leaf, hubs[1])
        mgr.note_repair(leaf, 7, now=0.2)  # sample was for the old parent
        assert mgr.stats["rtt_samples"] == 0
