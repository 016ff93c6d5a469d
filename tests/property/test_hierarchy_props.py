"""Property tests for the indexed LoggerTree and incremental re-scoring.

Two guarantees DESIGN §11 rests on, checked over random operation
sequences rather than hand-picked cases:

* after any valid ``add``/``reparent`` sequence every node sits strictly
  below its parent's level (which is why ``_candidates`` needs no cycle
  filter) and the tree's per-level index, child counts and ``children``
  agree with a from-scratch recomputation over the parent pointers;
* ``TreeManager.rescore`` — which examines only children whose decision
  inputs changed — returns the same ``Reparent`` lists in the same order
  and leaves the same tree and stats as the full-scan pass it replaced,
  kept below as the oracle, under interleaved upstream NACKs and repairs,
  live / saturated changes, forced moves and direct tree surgery.
"""

from __future__ import annotations

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.hierarchy import (
    HYSTERESIS, SERVE_COST, LoggerTree, Reparent, TreeManager, build_tree,
)

# -- tree index invariants -----------------------------------------------

_tree_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=30),  # parent index (mod nodes)
            st.integers(min_value=1, max_value=3),   # levels below the parent
        ),
        st.tuples(
            st.just("reparent"),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        ),
    ),
    max_size=60,
)


@given(_tree_ops)
def test_tree_index_matches_recomputation(ops):
    tree = LoggerTree("root")
    names = ["root"]
    version = tree.version
    for op in ops:
        if op[0] == "add":
            parent = names[op[1] % len(names)]
            name = f"n{len(names):02d}"
            tree.add(name, parent, tree.level(parent) + op[2])
            names.append(name)
        else:
            child, parent = names[op[1] % len(names)], names[op[2] % len(names)]
            try:
                tree.reparent(child, parent)
            except ConfigError:
                assert tree.version == version  # a rejected move mutates nothing
                continue
        assert tree.version > version
        version = tree.version

    parents = {n: tree.parent(n) for n in names if n != "root"}
    for node, parent in parents.items():
        assert tree.level(node) > tree.level(parent)
    for node in names:
        kids = tuple(sorted(c for c, p in parents.items() if p == node))
        assert tree.children(node) == kids
        assert tree.child_count(node) == len(kids)
    by_level: dict[int, list[str]] = {}
    for node in names:
        by_level.setdefault(tree.level(node), []).append(node)
    for level in range(max(by_level) + 2):
        assert tree.at_level(level) == tuple(sorted(by_level.get(level, ())))
    assert tree.top_down() == sorted(parents, key=lambda n: (tree.level(n), n))


# -- incremental rescore vs the full-scan oracle -------------------------


class FullScanManager(TreeManager):
    """The pre-incremental ``rescore``: every child, every epoch, against
    candidates found by scanning and sorting the whole tree (cycle filter
    included: no node of ``child``'s subtree).  The reference the
    incremental pass must equal."""

    def _candidates(self, child, live):
        tree = self.tree
        for level in range(tree.level(child) - 1, 0, -1):
            cands = [
                n for n in sorted(tree.nodes)
                if tree.level(n) == level and n in live
                and n != child and not tree.is_ancestor(child, n)
            ]
            if cands:
                open_slots = [n for n in cands if len(tree.children(n)) < self._fanout]
                return open_slots or cands
        return [tree.root]

    def _score(self, child, parent):
        load = len(self.tree.children(parent))
        if self.tree.parent(child) != parent:
            load += 1
        return self.cost(child, parent) + SERVE_COST * load

    def rescore(self, now, *, live, saturated=frozenset()):
        self.stats["rescores"] += 1
        self._prune_outstanding(now)
        moves: list[Reparent] = []
        order = sorted(
            (n for n in self.tree.nodes if n != self.tree.root),
            key=lambda n: (self.tree.level(n), n),
        )
        for child in order:
            parent = self.tree.parent(child)
            assert parent is not None
            parent_bad = parent not in live or parent in saturated
            cands = self._candidates(child, live)
            if parent_bad:
                alts = [p for p in cands if p != parent and p not in saturated]
                alts = alts or [p for p in cands if p != parent]
                if not alts:
                    continue
                best = min(alts, key=lambda p: (self._score(child, p), p))
                reason = "crash" if parent not in live else "saturation"
                moves.append(self._apply(child, best, reason, now))
                continue
            alts = [p for p in cands if p not in saturated or p == parent]
            if not alts:
                continue
            best = min(alts, key=lambda p: (self._score(child, p), p))
            if best != parent and (
                self._score(child, best) * HYSTERESIS < self._score(child, parent)
            ):
                moves.append(self._apply(child, best, "cost", now))
        return moves


def _seed_cost(child: str, parent: str) -> float:
    # Pure and static in (child, parent); few distinct values, so ties
    # are common and a one-child load change can flip a verdict.
    return 0.02 + (zlib.crc32(f"{child}>{parent}".encode()) % 3) * 0.01


# Small trees, few distinct seqs and a bias toward four leaves, so
# operations often land on the same link and the same outstanding request.
_node = st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=15)
_seq = st.integers(min_value=1, max_value=3)
_seqs = st.lists(_seq, min_size=1, max_size=2)
# An upstream NACK to the current parent (None) or to any node; a seq
# NACKed twice to the same parent is a retry.
_nack = st.tuples(st.just("nack"), _node, st.none() | _node, _seqs)
_repair = st.tuples(st.just("repair"), _node, _seq)
_op = st.one_of(
    # Measurements twice as often as each kind of tree change, so a cost
    # moved by a lone repair between two passes is common.
    _nack, _repair, _nack, _repair,
    st.tuples(st.just("toggle_live"), _node),
    st.tuples(st.just("toggle_saturated"), _node),
    st.tuples(st.just("force"), _node),
    st.tuples(st.just("reparent"), _node, _node),
)


@settings(deadline=None, max_examples=200)
@given(
    depth=st.sampled_from([2, 3, 3, 4, 4]),  # flat trees never move: keep them rare
    n_leaves=st.integers(min_value=4, max_value=8),
    fanout=st.integers(min_value=2, max_value=3),  # always >= 2 hubs per tier
    ops=st.lists(st.tuples(_op, st.booleans()), min_size=25, max_size=60),  # (op, rescore after it?)
)
def test_incremental_rescore_equals_full_scan(depth, n_leaves, fanout, ops):
    def make(cls):
        tree = build_tree("root", [f"s{i}" for i in range(n_leaves)], depth=depth, fanout=fanout)
        return cls(tree, fanout=fanout, seed_cost=_seed_cost)

    pair = (make(TreeManager), make(FullScanManager))
    names = [*reversed(pair[0].tree.top_down()), "root"]  # leaves first
    dead: set[str] = set()
    saturated: set[str] = set()
    now = 0.0

    def name(index):
        return names[index % len(names)]

    def apply(mgr, kind, node, *args):
        """One operation against one manager; returns what it observably did."""
        if kind == "nack":
            to = mgr.tree.parent(node) if args[0] is None else name(args[0])
            return mgr.note_nack(node, to or "root", args[1], now)
        if kind == "repair":
            return mgr.note_repair(node, args[0], now)
        if kind == "force":
            return mgr.force_reparent(node, live=frozenset(names) - dead, now=now)
        assert kind == "reparent"
        try:
            mgr.tree.reparent(node, name(args[0]))
        except ConfigError:
            return False
        return True

    def rescore_both():
        live, sat = frozenset(names) - dead, frozenset(saturated)
        fast, oracle = (m.rescore(now, live=live, saturated=sat) for m in pair)
        assert fast == oracle
        assert pair[0].tree.to_dict() == pair[1].tree.to_dict()
        assert pair[0].stats == pair[1].stats
        assert pair[0].moves == pair[1].moves

    for (kind, index, *args), then_rescore in ops:
        now += 0.25
        if kind == "toggle_live":
            dead.symmetric_difference_update({name(index)})
        elif kind == "toggle_saturated":
            saturated.symmetric_difference_update({name(index)})
        else:
            fast, oracle = (apply(m, kind, name(index), *args) for m in pair)
            assert fast == oracle
        if then_rescore:
            rescore_both()
    rescore_both()
    rescore_both()
