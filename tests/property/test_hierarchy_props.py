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
  kept below as the oracle, under interleaved link measurements, live /
  saturated changes, forced moves and direct tree surgery.
"""

from __future__ import annotations

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.hierarchy import LoggerTree, Reparent, TreeManager, build_tree

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
    candidates found by scanning and sorting the whole tree (subtree cycle
    filter included).  The reference the incremental pass must equal."""

    def _candidates(self, child, live):
        tree = self.tree
        below = tree.subtree(child)
        for level in range(tree.level(child) - 1, 0, -1):
            cands = [
                n for n in sorted(tree.nodes)
                if tree.level(n) == level and n in live and n not in below
            ]
            if cands:
                open_slots = [n for n in cands if len(tree.children(n)) < self._fanout]
                return open_slots or cands
        return [tree.root]

    def _score(self, child, parent):
        load = len(self.tree.children(parent))
        if self.tree.parent(child) != parent:
            load += 1
        return self.cost(child, parent) + self._serve_cost * load

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
                self._score(child, best) * self._hysteresis < self._score(child, parent)
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
_op = st.one_of(
    st.tuples(st.just("request"), _node, _seqs),
    st.tuples(st.just("retry"), _node, _seqs),
    st.tuples(st.just("repair"), _node, _seq),
    # A caller holding the LinkEstimate itself: the link to the current
    # parent (None) or to any other node.
    st.tuples(st.just("attempt"), _node, st.none() | _node),
    st.tuples(st.just("rtt"), _node, st.none() | _node,
              st.floats(min_value=0.001, max_value=1.0)),
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
    serve_cost=st.sampled_from([0.0, 0.002, 0.01]),
    hysteresis=st.sampled_from([1.0, 1.2, 1.5]),
    ops=st.lists(st.tuples(_op, st.booleans()), min_size=25, max_size=60),  # (op, rescore after it?)
)
def test_incremental_rescore_equals_full_scan(
    depth, n_leaves, fanout, serve_cost, hysteresis, ops
):
    def make(cls):
        tree = build_tree("root", [f"s{i}" for i in range(n_leaves)], depth=depth, fanout=fanout)
        return cls(tree, fanout=fanout, serve_cost=serve_cost, hysteresis=hysteresis,
                   seed_cost=_seed_cost)

    pair = (make(TreeManager), make(FullScanManager))
    names = [*reversed(pair[0].tree.top_down()), "root"]  # leaves first
    dead: set[str] = set()
    saturated: set[str] = set()
    now = 0.0

    def name(index):
        return names[index % len(names)]

    def apply(mgr, kind, node, *args):
        """One operation against one manager; returns what it observably did."""
        if kind == "request":
            return mgr.note_request(node, args[0], now)
        if kind == "retry":
            return mgr.note_retry(node, args[0])
        if kind == "repair":
            return mgr.note_repair(node, args[0], now)
        if kind in ("attempt", "rtt"):
            far_end = mgr.tree.parent(node) if args[0] is None else name(args[0])
            link = mgr.link(node, far_end or "root")
            if kind == "attempt":
                link.attempts += 1
            else:
                link.record_rtt(args[1])
            return None
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
