"""k-level repair-tree model with makespan-aware construction (DESIGN §11).

The paper's architecture stops at two levels — a primary log plus one
secondary logger per site (§2.2) — which is fine at tens of sites but
makes the primary's tail circuit the repair bottleneck once site counts
reach the thousands: a site-wide loss turns into N simultaneous unicast
repair streams squeezed through one link.  Following the hierarchical
reliable-multicast literature (see PAPERS.md, "Reducing the Makespan in
Hierarchical Reliable Multicast Tree"), this module generalizes the
logger layout to an arbitrary-depth tree in which every interior logger
is simultaneously

* a **repair server** for its subtree (it answers NACKs from its
  children out of its own log), and
* a **NACK-collapsing client** of its parent (holes in its own log
  escalate upward as a single batched request, exactly like a site
  logger's upstream path today).

Three pieces live here, all transport-agnostic:

* :class:`LoggerTree` — the tree itself: parent pointers, fixed tier
  ("level") per node, chain extraction for receiver escalation, and
  cycle-checked re-parenting.
* :func:`build_tree` / :func:`plan_level_sizes` — the initial
  balanced-degree construction: leaves are grouped contiguously (site
  locality) under ``ceil(n/fanout)`` parents per level.
* :class:`TreeManager` — the runtime brain: it keeps a
  :class:`LinkEstimate` (a :class:`~repro.core.estimator.TWaitEstimator`
  plus a loss ratio) per child→parent repair link, scores candidate
  parents by the **makespan objective**, and decides re-parenting moves
  when a parent dies, saturates, or becomes grossly more expensive than
  an alternative.

The makespan objective
----------------------
A parent serves its children's repairs serially (one tail circuit), so
with per-child serve cost ``s`` the ``i``-th child (0-based, served in
decreasing order of remaining cost) finishes its subtree's repair no
earlier than ``(i+1)·s + rtt_eff(child) + makespan(child)``.  The tree's
makespan is the maximum over children, applied recursively from the
root.  ``rtt_eff`` is the measured repair RTT inflated by observed loss
(a retry doubles the effective round trip), which is precisely what the
per-link :class:`LinkEstimate` tracks.

Greedy re-scoring keeps the tree *sticky*: a child only moves when its
parent is dead or saturated, or when the best alternative beats the
incumbent by a configurable hysteresis factor — measurement noise must
not cause re-parenting churn, because every move re-points live
recovery state.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

from repro import obs
from repro.core.errors import ConfigError
from repro.core.actions import Address
from repro.core.config import LbrmConfig
from repro.core.estimator import TWaitEstimator
from repro.core.logger import LoggerRole, LogServer

__all__ = [
    "LoggerTree",
    "tree_logger",
    "LinkEstimate",
    "Reparent",
    "TreeManager",
    "plan_level_sizes",
    "build_tree",
    "interior_name",
]


def interior_name(level: int, index: int) -> str:
    """Canonical name for the ``index``-th interior logger at ``level``.

    Shared between the simulator deployment, the aio cluster, and the
    chaos fault sampler so a schedule can target an interior hub without
    building the deployment first.
    """
    return f"hub{level}-{index}-logger"


def plan_level_sizes(n_leaves: int, depth: int, fanout: int) -> dict[int, int]:
    """Interior-level sizes for a ``depth``-level tree over ``n_leaves``.

    Levels are numbered root=0 … leaves=``depth-1``; the returned dict
    maps each *interior* level (1 … depth-2) to the number of hubs it
    needs so no parent exceeds ``fanout`` children.  ``depth=2`` is the
    paper's flat layout and returns ``{}``.
    """
    if depth < 2:
        raise ConfigError(f"tree depth must be >= 2 (root + site loggers), got {depth}")
    if fanout < 2:
        raise ConfigError(f"fanout must be >= 2, got {fanout}")
    if n_leaves < 1:
        raise ConfigError(f"n_leaves must be >= 1, got {n_leaves}")
    sizes: dict[int, int] = {}
    below = n_leaves
    for level in range(depth - 2, 0, -1):
        count = min(below, max(1, math.ceil(below / fanout)))
        sizes[level] = count
        below = count
    return sizes


class LoggerTree:
    """Parent pointers plus fixed tiers for a logger hierarchy.

    A node's *level* is its tier in the layout (root=0, site loggers at
    the bottom) and never changes; its *parent* can move to any node of
    a strictly lower level, which is how a subtree survives the death of
    every hub at one tier (its loggers re-parent straight to the root).
    ``version`` counts mutations (``add`` and ``reparent``), so a reader
    can tell whether the tree moved since it last looked.
    """

    def __init__(self, root: str) -> None:
        self._root = root
        self._parents: dict[str, str] = {}
        self._levels: dict[str, int] = {root: 0}
        self._children: dict[str, set[str]] = {root: set()}
        # level -> sorted names; levels are fixed, so add() is the only writer.
        self._by_level: dict[int, list[str]] = {0: [root]}
        self.version = 0

    # -- construction ------------------------------------------------------

    def add(self, name: str, parent: str, level: int) -> None:
        if name in self._levels:
            raise ConfigError(f"duplicate tree node {name!r}")
        if parent not in self._levels:
            raise ConfigError(f"unknown parent {parent!r} for {name!r}")
        if level <= self._levels[parent]:
            raise ConfigError(
                f"{name!r} at level {level} cannot attach under {parent!r} "
                f"at level {self._levels[parent]}"
            )
        self._levels[name] = level
        self._parents[name] = parent
        self._children[name] = set()
        self._children[parent].add(name)
        insort(self._by_level.setdefault(level, []), name)
        self.version += 1

    # -- queries -----------------------------------------------------------

    @property
    def root(self) -> str:
        return self._root

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._levels))

    def __contains__(self, name: str) -> bool:
        return name in self._levels

    def parent(self, name: str) -> str | None:
        return self._parents.get(name)

    def level(self, name: str) -> int:
        return self._levels[name]

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(sorted(self._children.get(name, ())))

    def child_count(self, name: str) -> int:
        return len(self._children.get(name, ()))

    def at_level(self, level: int) -> tuple[str, ...]:
        return tuple(self._by_level.get(level, ()))

    @property
    def depth(self) -> int:
        """Number of tiers: 1 for the root alone, 2 for the paper's flat layout."""
        return max(self._by_level) + 1

    def top_down(self) -> list[str]:
        """Every non-root node in (level, name) order."""
        return [n for level in sorted(self._by_level)[1:] for n in self._by_level[level]]

    def chain(self, leaf: str) -> tuple[str, ...]:
        """Escalation chain from ``leaf`` up to and including the root."""
        if leaf not in self._levels:
            raise KeyError(leaf)
        out = [leaf]
        node = leaf
        while node != self._root:
            node = self._parents[node]
            out.append(node)
        return tuple(out)

    def subtree(self, name: str) -> frozenset[str]:
        """``name`` plus every descendant."""
        out = {name}
        frontier = [name]
        while frontier:
            node = frontier.pop()
            for child in self._children.get(node, ()):
                out.add(child)
                frontier.append(child)
        return frozenset(out)

    def is_ancestor(self, ancestor: str, node: str) -> bool:
        while node in self._parents:
            node = self._parents[node]
            if node == ancestor:
                return True
        return False

    # -- mutation ----------------------------------------------------------

    def reparent(self, child: str, new_parent: str) -> None:
        if child == self._root:
            raise ConfigError("cannot re-parent the root")
        if new_parent not in self._levels:
            raise ConfigError(f"unknown parent {new_parent!r}")
        if new_parent == child or self.is_ancestor(child, new_parent):
            raise ConfigError(f"re-parenting {child!r} under {new_parent!r} forms a cycle")
        if self._levels[new_parent] >= self._levels[child]:
            raise ConfigError(
                f"{child!r} (level {self._levels[child]}) cannot attach under "
                f"{new_parent!r} (level {self._levels[new_parent]})"
            )
        old = self._parents[child]
        self._children[old].discard(child)
        self._parents[child] = new_parent
        self._children[new_parent].add(child)
        self.version += 1

    def to_dict(self) -> dict:
        """Deterministic JSON-ready snapshot (sorted keys)."""
        return {
            "root": self._root,
            "levels": {n: self._levels[n] for n in sorted(self._levels)},
            "parents": {n: self._parents[n] for n in sorted(self._parents)},
        }


def build_tree(
    root: str,
    leaves: Iterable[str],
    *,
    depth: int,
    fanout: int,
    namer: Callable[[int, int], str] = interior_name,
) -> LoggerTree:
    """Balanced-degree initial construction.

    With no measurements yet every link costs the same, so the makespan
    objective reduces to degree balancing; leaves are grouped
    *contiguously* (adjacent site indices share a hub — the simulated
    WAN and real deployments both place adjacent sites near each other),
    and each interior level gets ``ceil(n/fanout)`` hubs.  Level numbers
    run root=0 … leaves=``depth-1``.
    """
    leaf_list = list(leaves)
    sizes = plan_level_sizes(len(leaf_list), depth, fanout)
    tree = LoggerTree(root)
    # Build interior levels top-down, then attach the leaves.
    parents_above: list[str] = [root]
    for level in range(1, depth - 1):
        count = sizes[level]
        names = [namer(level, i) for i in range(count)]
        for i, name in enumerate(names):
            parent = parents_above[i * len(parents_above) // count]
            tree.add(name, parent, level)
        parents_above = names
    n = len(leaf_list)
    for i, leaf in enumerate(leaf_list):
        parent = parents_above[i * len(parents_above) // n]
        tree.add(leaf, parent, depth - 1)
    return tree


def tree_logger(
    tree: LoggerTree,
    name: str,
    group: str,
    config: LbrmConfig,
    *,
    addr_token: str | None = None,
    address_of: Callable[[str], Address] = lambda name: name,
    source: Address | None = None,
    **kwargs,
) -> LogServer:
    """The log server for tree node ``name``, in any runtime.

    Role, tier, upstream parent and repair scope all follow from the
    node's position in ``tree``; a runtime supplies only how tree names
    map to its addresses (``address_of``; the simulator's are the names)
    and what it knows of the source.  ``kwargs`` pass through to
    :class:`LogServer` (``replicas``, ``rng``).
    """
    level = tree.level(name)
    parent = tree.parent(name)
    return LogServer(
        group,
        addr_token=addr_token or name,
        config=config,
        role=LoggerRole.PRIMARY if parent is None else LoggerRole.SECONDARY,
        # The source is the primary's upstream (§2.2.3): it buffers
        # exactly the packets the log has not acknowledged, so the
        # primary backfills its own multicast losses from there.
        parent=source if parent is None else address_of(parent),
        source=source,
        level=level,
        # An interior hub's repair clients are remote loggers; a
        # TTL-scoped re-multicast could never reach them.
        site_scoped_repairs=not 0 < level < tree.depth - 1,
        **kwargs,
    )


# Cap on a link's loss-episode widening, as a multiple of its EWMA RTT
# (the source's ``t_wait_max_widen``, §2.3.2).
_LINK_MAX_WIDEN = 16.0


class LinkEstimate:
    """Repair-RTT and loss tracking for one child→parent repair link.

    The RTT side reuses :class:`TWaitEstimator` verbatim — a repair link
    has the same dynamics as the source's ACK-collection window: clean
    request→repair round trips tighten the estimate, and a retry (the
    request or the repair was lost) widens it multiplicatively, decaying
    back once clean samples resume.  The loss ratio further inflates the
    effective cost: a link dropping half its repairs takes twice the
    round trips to finish a recovery.
    """

    __slots__ = ("_rtt", "_attempts", "retries", "_touched")

    def __init__(
        self,
        *,
        alpha: float,
        initial: float,
        touched: Callable[[], object] = lambda: None,
    ) -> None:
        self._rtt = TWaitEstimator(alpha=alpha, initial=initial, max_widen=_LINK_MAX_WIDEN)
        self._attempts = 0
        self.retries = 0
        # Called on every mutation that can change ``cost``: the owning
        # manager re-examines the child at its next rescore.
        self._touched = touched

    @property
    def attempts(self) -> int:
        return self._attempts

    @attempts.setter
    def attempts(self, value: int) -> None:
        self._attempts = value
        self._touched()

    @property
    def loss_rate(self) -> float:
        if self._attempts <= 0:
            return 0.0
        return min(self.retries / self._attempts, 0.75)

    @property
    def cost(self) -> float:
        """Effective repair round trip: measured RTT inflated by loss."""
        return self._rtt.t_wait / (1.0 - self.loss_rate)

    def record_rtt(self, sample: float) -> None:
        self._rtt.record_last_ack(sample)
        self._touched()

    def record_retry(self, widen: float = 1.5) -> None:
        self.retries += 1
        self._rtt.widen(widen)
        self._touched()


@dataclass(frozen=True, slots=True)
class Reparent:
    """One applied re-parenting decision (for reports and chaos digests)."""

    child: str
    old_parent: str
    new_parent: str
    reason: str  # "crash" | "saturation" | "cost" | "forced"
    at: float

    def to_dict(self) -> dict:
        return {
            "child": self.child,
            "old_parent": self.old_parent,
            "new_parent": self.new_parent,
            "reason": self.reason,
            "at": round(self.at, 6),
        }


class TreeManager:
    """Makespan-aware scoring and re-parenting over a :class:`LoggerTree`.

    Transport-agnostic: a runtime (the simulator's ``HierarchyRuntime``
    or an aio adapter) feeds it request/repair/retry observations and
    asks it to ``rescore`` once per heartbeat epoch with the current
    live set; the manager mutates the tree and returns the applied
    :class:`Reparent` moves for the runtime to wire into the protocol
    machines (``LogServer.set_parent`` + receiver chain updates).

    ``seed_cost(child, parent)`` is the prior for a link with no samples
    yet and must be a pure static function of the pair: ``link`` freezes
    it into the estimator's initial value, and ``rescore`` relies on a
    link's cost changing only through its :class:`LinkEstimate`.
    """

    _REASONS = ("crash", "saturation", "cost", "forced")

    def __init__(
        self,
        tree: LoggerTree,
        *,
        fanout: int,
        serve_cost: float = 0.0005,
        hysteresis: float = 1.5,
        link_alpha: float = 0.125,
        seed_cost: Callable[[str, str], float] | None = None,
    ) -> None:
        if fanout < 2:
            raise ConfigError(f"fanout must be >= 2, got {fanout}")
        if hysteresis < 1.0:
            raise ConfigError(f"hysteresis must be >= 1, got {hysteresis}")
        self.tree = tree
        self._fanout = fanout
        self._serve_cost = serve_cost
        self._hysteresis = hysteresis
        self._link_alpha = link_alpha
        self._seed_cost = seed_cost or (lambda child, parent: 0.05)
        self._links: dict[tuple[str, str], LinkEstimate] = {}
        self._outstanding: dict[tuple[str, int], tuple[float, str]] = {}
        # Children with a link touched since they were last examined, and
        # the (live, saturated, tree.version) the last pass started under.
        self._dirty: set[str] = set()
        self._examined_under: tuple[frozenset[str], frozenset[str], int] | None = None
        self.moves: list[Reparent] = []
        self.stats = {
            "rescores": 0,
            **{f"reparents_{reason}": 0 for reason in self._REASONS},
            "rtt_samples": 0,
            "retries_seen": 0,
        }
        registry = obs.registry()
        self._obs_rescores = registry.counter("hierarchy.rescores")
        self._obs_full_passes = registry.counter("hierarchy.rescore_full_passes")
        self._obs_examined = registry.counter("hierarchy.rescore_examined")
        self._obs_reparents = {
            reason: registry.counter(f"hierarchy.reparents.{reason}") for reason in self._REASONS
        }

    # -- per-link measurement ---------------------------------------------

    def link(self, child: str, parent: str) -> LinkEstimate:
        key = (child, parent)
        est = self._links.get(key)
        if est is None:
            est = LinkEstimate(
                alpha=self._link_alpha,
                initial=max(self._seed_cost(child, parent), 1e-6),
                touched=partial(self._dirty.add, child),
            )
            self._links[key] = est
        return est

    def note_request(self, child: str, seqs: Iterable[int], now: float) -> None:
        """An upstream NACK left ``child`` toward its current parent."""
        parent = self.tree.parent(child)
        if parent is None:
            return
        link = self.link(child, parent)
        for seq in seqs:
            link.attempts += 1
            self._outstanding[(child, seq)] = (now, parent)

    def note_retry(self, child: str, seqs: Iterable[int]) -> None:
        """An upstream request was re-sent: count loss on the link."""
        parent = self.tree.parent(child)
        if parent is None:
            return
        link = self.link(child, parent)
        for _seq in seqs:
            link.record_retry()
            self.stats["retries_seen"] += 1

    def has_outstanding(self, child: str, seq: int) -> bool:
        """True while ``child``'s request for ``seq`` to its current parent awaits repair.

        A request left outstanding at a previous parent does not count: the
        next NACK for that seq is the new link's first attempt, not a retry.
        """
        entry = self._outstanding.get((child, seq))
        return entry is not None and entry[1] == self.tree.parent(child)

    def note_repair(self, child: str, seq: int, now: float) -> None:
        """A repair for ``seq`` reached ``child``: close the RTT sample."""
        entry = self._outstanding.pop((child, seq), None)
        if entry is None:
            return
        sent_at, parent = entry
        if self.tree.parent(child) == parent:
            self.link(child, parent).record_rtt(max(now - sent_at, 0.0))
            self.stats["rtt_samples"] += 1

    def cost(self, child: str, parent: str) -> float:
        link = self._links.get((child, parent))
        if link is not None and link.attempts > 0:
            return link.cost
        return max(self._seed_cost(child, parent), 1e-6)

    # -- makespan objective ------------------------------------------------

    def makespan(self, node: str | None = None) -> float:
        """Worst-case serial repair completion time of ``node``'s subtree.

        Children are served in decreasing order of remaining cost (the
        LPT order that minimizes the serial maximum); the ``i``-th slot
        adds ``(i+1)·serve_cost`` of serialization at the parent.
        """
        node = node or self.tree.root
        children = self.tree.children(node)
        if not children:
            return 0.0
        remaining = sorted(
            ((self.cost(c, node) + self.makespan(c), c) for c in children), reverse=True
        )
        worst = 0.0
        for i, (cost, _name) in enumerate(remaining):
            worst = max(worst, (i + 1) * self._serve_cost + cost)
        return worst

    # -- re-parenting ------------------------------------------------------

    def _candidates(self, child: str, live: frozenset[str]) -> list[str]:
        """Live attach points for ``child``, preferring its natural tier.

        Walk upward tier by tier: parents one level above first, then
        grandparent tier, finally the root (always a candidate of last
        resort — if the root is gone the failover machinery, not the
        tree, is responsible).  Every candidate sits at a lower level
        than ``child`` and every descendant at a higher one, so no
        candidate can form a cycle.
        """
        tree = self.tree
        for level in range(tree.level(child) - 1, 0, -1):
            cands = [n for n in tree.at_level(level) if n in live]
            if cands:
                open_slots = [n for n in cands if tree.child_count(n) < self._fanout]
                return open_slots or cands
        return [tree.root]

    def _score(self, child: str, parent: str) -> float:
        load = self.tree.child_count(parent)
        if self.tree.parent(child) != parent:
            load += 1
        return self.cost(child, parent) + self._serve_cost * load

    def _apply(self, child: str, new_parent: str, reason: str, now: float) -> Reparent:
        move = Reparent(
            child=child,
            old_parent=self.tree.parent(child) or self.tree.root,
            new_parent=new_parent,
            reason=reason,
            at=now,
        )
        self.tree.reparent(child, new_parent)
        self.moves.append(move)
        self.stats[f"reparents_{reason}"] += 1
        self._obs_reparents[reason].inc()
        return move

    def rescore(
        self,
        now: float,
        *,
        live: frozenset[str],
        saturated: frozenset[str] = frozenset(),
    ) -> list[Reparent]:
        """One heartbeat-epoch re-scoring pass.

        ``live`` is the set of loggers currently able to serve repairs
        (the root should be included by the caller whenever the sender
        trusts *some* primary — during a failover window it may be
        absent, in which case children of the root stay put and ride out
        the window).  ``saturated`` marks parents whose outstanding
        upstream-repair queue exceeded the configured threshold.

        Moves are applied eagerly so later decisions in the same pass
        see updated loads; iteration order (level, name) is
        deterministic.

        A child's verdict is a pure function of its parent, ``live``,
        ``saturated``, the candidates' child counts and its link costs,
        so only children whose inputs changed are examined (DESIGN §11):
        all of them when ``(live, saturated)`` or ``tree.version`` differs
        from what the previous pass started under, otherwise those with a
        touched link and, once one of them moves, every child after it.
        Everyone else's previous verdict, "stay", stands.
        """
        self.stats["rescores"] += 1
        self._obs_rescores.inc()
        self._prune_outstanding(now)
        tree = self.tree
        under = (live, saturated, tree.version)
        full = under != self._examined_under
        self._examined_under = under
        if full:
            self._obs_full_passes.inc()
            todo = tree.top_down()
        else:
            todo = sorted(
                (c for c in self._dirty if tree.parent(c) is not None),
                key=lambda n: (tree.level(n), n),
            )
        self._dirty.clear()
        moves: list[Reparent] = []
        at = examined = 0
        while at < len(todo):
            child = todo[at]
            at += 1
            examined += 1
            move = self._decide(child, now, live, saturated)
            if move is not None:
                moves.append(move)
                if not full:
                    full = True
                    todo = tree.top_down()
                    at = todo.index(child) + 1
        self._obs_examined.inc(examined)
        return moves

    def _decide(
        self, child: str, now: float, live: frozenset[str], saturated: frozenset[str]
    ) -> Reparent | None:
        """Examine one child against the current tree; apply its move, if any."""
        parent = self.tree.parent(child)
        assert parent is not None
        cands = self._candidates(child, live)
        if parent not in live or parent in saturated:
            # Leaving a dead/saturated parent: never pick it again,
            # and avoid piling onto another saturated hub unless it
            # is the only live option.
            alts = [p for p in cands if p != parent and p not in saturated]
            alts = alts or [p for p in cands if p != parent]
            if not alts:
                return None
            best = min(alts, key=lambda p: (self._score(child, p), p))
            reason = "crash" if parent not in live else "saturation"
            return self._apply(child, best, reason, now)
        alts = [p for p in cands if p not in saturated or p == parent]
        if not alts:
            return None
        best = min(alts, key=lambda p: (self._score(child, p), p))
        if best != parent and (
            self._score(child, best) * self._hysteresis < self._score(child, parent)
        ):
            return self._apply(child, best, "cost", now)
        return None

    def force_reparent(self, child: str, *, live: frozenset[str], now: float) -> Reparent | None:
        """Chaos hook: move ``child`` to its best live alternative parent.

        Returns ``None`` when no live alternative exists (the move is
        impossible, not an error — the schedule may have crashed every
        other hub).
        """
        if child not in self.tree or child == self.tree.root:
            return None
        parent = self.tree.parent(child)
        cands = [p for p in self._candidates(child, live) if p != parent]
        if not cands:
            return None
        best = min(cands, key=lambda p: (self._score(child, p), p))
        return self._apply(child, best, "forced", now)

    def _prune_outstanding(self, now: float, horizon: float = 30.0) -> None:
        if len(self._outstanding) < 4096:
            return
        stale = [k for k, (sent_at, _p) in self._outstanding.items() if now - sent_at > horizon]
        for key in stale:
            del self._outstanding[key]
