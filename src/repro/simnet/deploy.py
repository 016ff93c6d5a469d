"""Turn-key LBRM deployments on the simulated WAN.

The paper's canonical evaluation scenario (§2.2.2) is "1,000 subscribers
distributed across 50 sites with 20 participating receivers at each
site", with the source and primary logger at their own site, ~80 ms RTT
across the WAN and ~4 ms RTT within a site.  :class:`LbrmDeployment`
builds exactly that (any dimensions), wires senders, loggers, replicas,
and receivers together, and exposes the pieces for experiments to poke
at — inject loss on one tail circuit, kill the primary, etc.

Who logs for whom is always a :class:`~repro.core.hierarchy.LoggerTree`:
the paper's two-level layout is ``depth=2`` (a root plus one leaf per
site), its §7 multi-level hierarchy any deeper tree.
:class:`TreeDeployment` builds the tree, the hub site and every logger
once for every simulated runtime; a subclass supplies what lives behind
each site logger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.config import LbrmConfig
from repro.core.errors import ConfigError
from repro.core.hierarchy import LoggerTree, build_tree, tree_logger
from repro.core.logger import LoggerRole, LogServer
from repro.core.machine import ProtocolMachine
from repro.core.receiver import LbrmReceiver
from repro.core.sender import LbrmSender
from repro.simnet.engine import Simulator
from repro.simnet.hierarchy import HierarchyRuntime
from repro.simnet.loss import BurstLoss
from repro.simnet.node import SimNode
from repro.simnet.rng import RngStreams
from repro.simnet.topology import Network, Site
from repro.simnet.trace import PacketTrace

__all__ = ["DeploymentSpec", "TreeDeployment", "LbrmDeployment"]


@dataclass(frozen=True)
class DeploymentSpec:
    """Shape and parameters of a simulated LBRM deployment.

    Latency defaults follow the paper's ping survey (§2.2.2): a local
    logger 3–4 ms RTT away, a primary ~80 ms RTT away — so 1 ms one-way
    on the LAN and 17.5 ms one-way on each tail circuit
    (2×(1+17.5+2.5+17.5+1) ≈ 79 ms host-to-host RTT across sites).
    """

    group: str = "dis/terrain/1"
    n_sites: int = 50
    receivers_per_site: int = 20
    n_replicas: int = 0
    lan_latency: float = 0.001
    tail_latency: float = 0.0175
    backbone_latency: float = 0.0025
    tail_bandwidth: float = 0.0  # bits/s; 0 = uncongested
    tail_queue: int = 0
    secondary_loggers: bool = True
    # DESIGN §11: the logger tree.  ``depth`` counts logger levels
    # including the primary (0) and the site loggers (depth-1); depth=2
    # is the paper's flat layout.  depth>=3 is §7's "multi-level
    # hierarchy of logging servers": makespan-aware interior hubs
    # ("hub{level}-{k}-logger") between the site loggers and the
    # primary, maintained at runtime by
    # :class:`~repro.simnet.hierarchy.HierarchyRuntime` (re-scoring,
    # saturation/crash re-parenting).  ``fanout`` bounds children per
    # interior logger.
    depth: int = 2
    fanout: int = 8
    enable_statack: bool = False
    config: LbrmConfig = field(default_factory=LbrmConfig)
    seed: int = 0


class TreeDeployment:
    """Hub site, logger tree and lifecycle of a simulated deployment.

    Built once for the exact and the aggregate runtime: the source and
    primary (plus replicas) at ``site0``, one receiver site per tree
    leaf, and every interior hub hosted at the site of its first
    descendant leaf.  A subclass says how a site's links are
    parameterised (``_add_site``), what lives behind each site logger
    (``_populate``) and which nodes those are (``_population_nodes``).
    """

    def __init__(self, spec, sim: Simulator | None = None) -> None:
        self.spec = spec
        self.sim = sim or Simulator()
        self.streams = RngStreams(spec.seed)
        self.network = Network(
            self.sim, streams=self.streams, backbone_latency=spec.backbone_latency
        )
        # name -> (machine, node) for every node, in build order; the
        # tree's names pick the loggers out of it.
        self.members: dict[str, tuple[ProtocolMachine, SimNode]] = {}
        self.receiver_sites: list[Site] = []
        self.replicas: list[LogServer] = []
        self.replica_nodes: list[SimNode] = []
        self.site_loggers: list[LogServer] = []
        self.site_logger_nodes: list[SimNode] = []
        self.interior_loggers: list[LogServer] = []
        self.interior_logger_nodes: list[SimNode] = []
        self.hierarchy: HierarchyRuntime | None = None

    # -- construction ----------------------------------------------------

    def _build(
        self,
        site_indices: Iterable[int],
        *,
        depth: int = 2,
        fanout: int = 8,
        secondary_loggers: bool = True,
        n_replicas: int = 0,
        enable_statack: bool = False,
    ) -> None:
        """Build the sites in ``site_indices`` (a shard's view may hold a
        subset) under the tree over all of the spec's sites."""
        spec = self.spec
        leaves = [f"site{i}-logger" for i in range(1, spec.n_sites + 1)]
        if secondary_loggers:
            tree = build_tree("primary", leaves, depth=depth, fanout=fanout)
        else:  # the centralized baseline: the root logs for everyone
            tree = LoggerTree("primary")
        self.tree = tree

        self.source_site = self._add_site("site0")
        source_host = self.network.add_host("source", self.source_site)
        replica_names = [f"replica{i}" for i in range(n_replicas)]
        self.primary, self.primary_node = self._add_logger(
            "primary", self.source_site, replicas=tuple(replica_names)
        )
        for name in replica_names:
            replica = LogServer(
                spec.group,
                addr_token=name,
                config=spec.config,
                role=LoggerRole.REPLICA,
                source="source",
            )
            self.replicas.append(replica)
            self.replica_nodes.append(self._add_node(name, self.source_site, replica))

        self.sender = LbrmSender(
            spec.group,
            spec.config,
            primary="primary",
            replicas=tuple(replica_names),
            enable_statack=enable_statack,
            addr_token="source",
            rng=self.streams.stream("sender"),
        )
        self.source_node = SimNode(self.network, source_host, [self.sender])
        self.members["source"] = (self.sender, self.source_node)

        # Where each tree node is hosted: a leaf at its site, a hub at
        # the site of its first descendant leaf.
        site_of: dict[str, str] = {"primary": "site0"}
        receivers_by_leaf: dict[str, list] = {}
        for i in site_indices:
            site = self._add_site(f"site{i}")
            self.receiver_sites.append(site)
            leaf = f"site{i}-logger"
            chain: tuple[str, ...] = (tree.root,)
            if leaf in tree:
                logger, node = self._add_logger(
                    leaf, site, rng=self.streams.stream(f"logger:{leaf}")
                )
                self.site_loggers.append(logger)
                self.site_logger_nodes.append(node)
                chain = tree.chain(leaf)
                for name in chain:
                    site_of.setdefault(name, site.name)
            receivers_by_leaf[leaf] = self._populate(site, i, chain)

        for level in range(1, tree.depth - 1):
            for name in tree.at_level(level):
                hub, node = self._add_logger(
                    name,
                    self.network.site(site_of[name]),
                    rng=self.streams.stream(f"logger:{name}"),
                )
                self.interior_loggers.append(hub)
                self.interior_logger_nodes.append(node)

        # Re-scoring needs an alternative parent to move a child to; a
        # depth-2 tree has none, so there is nothing to measure.
        if tree.depth > 2:
            self.hierarchy = HierarchyRuntime(
                self, fanout=fanout, site_of=site_of, receivers_by_leaf=receivers_by_leaf
            )

    def _add_node(self, name: str, site: Site, machine: ProtocolMachine, **host) -> SimNode:
        node = SimNode(self.network, self.network.add_host(name, site, **host), [machine])
        self.members[name] = (machine, node)
        return node

    def _add_logger(self, name: str, site: Site, **kwargs) -> tuple[LogServer, SimNode]:
        """Host tree node ``name``'s log server at ``site``."""
        logger = tree_logger(
            self.tree, name, self.spec.group, self.spec.config, source="source", **kwargs
        )
        return logger, self._add_node(name, site, logger)

    def _add_site(self, name: str) -> Site:
        raise NotImplementedError

    def _populate(self, site: Site, index: int, chain: tuple[str, ...]) -> list:
        """Build receiver site ``index``'s population; returns the
        machines that hold ``chain`` (re-pointed when the tree moves)."""
        raise NotImplementedError

    def _population_nodes(self) -> list[SimNode]:
        raise NotImplementedError

    # -- operation ----------------------------------------------------------

    def start(self) -> None:
        """Start every node (group joins, watchdogs, statack bootstrap)."""
        if self.hierarchy is not None and not self.hierarchy.installed:
            self.hierarchy.install()
        for node in self.all_nodes():
            node.start()

    def node(self, name: str) -> SimNode:
        """The node hosting ``name`` (receivers, loggers, replicas, source)."""
        return self.members[name][1]

    def all_nodes(self) -> list[SimNode]:
        """Every node, in start order."""
        return [
            self.primary_node,
            *self.replica_nodes,
            *self.interior_logger_nodes,
            *self.site_logger_nodes,
            *self._population_nodes(),
            self.source_node,
        ]

    def send(self, payload: bytes) -> int:
        """Multicast one data packet from the source; returns its seq."""
        self.source_node.send_app(self.sender, payload)
        return self.sender.seq

    def advance(self, dt: float) -> None:
        """Run the simulation forward ``dt`` seconds."""
        self.sim.run_until(self.sim.now + dt)

    # -- experiment hooks ----------------------------------------------------

    def burst_site(self, site_name: str, duration: float, start: float | None = None) -> None:
        """Drop everything entering ``site_name`` for ``duration`` seconds
        (Figure 1's congested-tail-circuit event), by default starting now.

        The tail circuit's configured loss model keeps applying outside
        the window; bursting a site again adds a window instead of
        wrapping the model once more.
        """
        begin = self.sim.now if start is None else start
        link = self.network.site(site_name).tail_down
        windows, base = [(begin, begin + duration)], link.loss
        if isinstance(base, BurstLoss):
            windows += [w for w in base.windows if w[1] > self.sim.now]
            base = base.base
        link.loss = BurstLoss(windows, base=base)

    def burst_sites(self, site_names: list[str], duration: float) -> None:
        """Burst several sites' tail circuits simultaneously."""
        for name in site_names:
            self.burst_site(name, duration)


class LbrmDeployment(TreeDeployment):
    """A built deployment: network, nodes, and protocol machines."""

    def __init__(self, spec: DeploymentSpec | None = None, sim: Simulator | None = None) -> None:
        super().__init__(spec or DeploymentSpec(), sim)
        spec = self.spec
        self.trace = PacketTrace(self.network)
        self.receivers: list[LbrmReceiver] = []
        self.receiver_nodes: list[SimNode] = []
        if spec.depth > 2 and not spec.secondary_loggers:
            raise ConfigError("depth > 2 requires secondary_loggers")
        self._build(
            range(1, spec.n_sites + 1),
            depth=spec.depth,
            fanout=spec.fanout,
            secondary_loggers=spec.secondary_loggers,
            n_replicas=spec.n_replicas,
            enable_statack=spec.enable_statack,
        )

    def _add_site(self, name: str) -> Site:
        spec = self.spec
        return self.network.add_site(
            name,
            lan_latency=spec.lan_latency,
            tail_latency=spec.tail_latency,
            tail_bandwidth=spec.tail_bandwidth,
            tail_queue=spec.tail_queue,
        )

    def _populate(self, site: Site, index: int, chain: tuple[str, ...]) -> list[LbrmReceiver]:
        spec = self.spec
        first = len(self.receivers)
        for j in range(spec.receivers_per_site):
            receiver = LbrmReceiver(
                spec.group,
                spec.config.receiver,
                logger_chain=chain,
                source="source",
                heartbeat=spec.config.heartbeat,
            )
            self.receivers.append(receiver)
            self.receiver_nodes.append(self._add_node(f"site{index}-rx{j}", site, receiver))
        return self.receivers[first:]

    def _population_nodes(self) -> list[SimNode]:
        return self.receiver_nodes

    # -- experiment hooks ----------------------------------------------------

    def kill_site_logger(self, index: int) -> None:
        """Crash one secondary logger (0-based, in site order)."""
        self.site_logger_nodes[index].machines.clear()

    def kill_primary(self) -> None:
        """Crash the primary logger: it stops answering everything."""
        self.primary_node.machines.clear()

    def receivers_missing(self) -> int:
        """Total outstanding missing sequence numbers across receivers."""
        return sum(len(r.missing) for r in self.receivers)

    def receivers_with(self, seq: int) -> int:
        """How many receivers hold ``seq``."""
        return sum(1 for r in self.receivers if r.tracker.has(seq))
