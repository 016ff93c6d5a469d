"""Turn-key LBRM clusters over real UDP.

:class:`AioCluster` is the asyncio counterpart of
:class:`repro.simnet.deploy.LbrmDeployment`: it starts a primary logger
(plus optional replicas and site secondaries), a source, and N receivers
as real asyncio endpoints on loopback, wiring the dynamically-assigned
socket addresses together in dependency order (loggers before the
sender, because the sender needs the primary's port).

Site secondaries (``n_secondaries``) reproduce the paper's hierarchy
(§2.2.2) on real sockets: receivers NACK their site logger first, which
answers repairs by unicast from its own log and collapses duplicate
NACKs before escalating to the primary.

With ``use_discovery=True`` receivers locate their logger at runtime via
expanding-ring scoped multicast (§2.2.1) instead of static wiring: each
receiver node carries a :class:`~repro.core.discovery.DiscoveryClient`,
installs the discovered chain on success, and falls back to the static
primary address when every ring up to ``max_ttl`` stays silent.

Used by ``examples/asyncio_live.py``-style demos and the aio integration
tests; on a real LAN, pass each node's interface address instead of the
loopback default.
"""

from __future__ import annotations

import asyncio

from repro.aio.groupmap import GroupDirectory
from repro.aio.node import AioNode, addr_token, parse_token
from repro.core.config import DiscoveryConfig, LbrmConfig
from repro.core.discovery import DiscoveryClient
from repro.core.errors import ConfigError
from repro.core.events import DiscoveryExhausted, Event, LoggerDiscovered
from repro.core.hierarchy import LoggerTree, build_tree, tree_logger
from repro.core.logger import LoggerRole, LogServer
from repro.core.receiver import LbrmReceiver
from repro.core.retranschannel import RetransChannelConfig
from repro.core.sender import LbrmSender

__all__ = ["AioCluster"]


class AioCluster:
    """A full LBRM group (logger, replicas, source, receivers) on UDP."""

    def __init__(
        self,
        group: str,
        config: LbrmConfig | None = None,
        *,
        n_receivers: int = 2,
        n_replicas: int = 0,
        n_secondaries: int = 0,
        depth: int = 2,
        fanout: int = 8,
        use_discovery: bool = False,
        discovery: DiscoveryConfig | None = None,
        enable_statack: bool = False,
        retrans_channel: RetransChannelConfig | None = None,
        directory: GroupDirectory | None = None,
        interface: str = "127.0.0.1",
        bundling: bool = False,
        max_bundle_bytes: int = 1400,
        max_bundle_delay: float = 0.0,
    ) -> None:
        self.group = group
        self.config = config or LbrmConfig()
        self.directory = directory or GroupDirectory()
        self._interface = interface
        # Transport fast-path knobs, applied uniformly to every node in
        # the cluster (see AioNode: with bundling off the wire format is
        # byte-identical to previous releases).
        self._node_kwargs = {
            "bundling": bundling,
            "max_bundle_bytes": max_bundle_bytes,
            "max_bundle_delay": max_bundle_delay,
        }
        self._n_receivers = n_receivers
        self._n_replicas = n_replicas
        # DESIGN §11: who logs for whom is a logger tree whose leaves are
        # the site secondaries; depth=2 is the paper's flat layout,
        # depth>=3 inserts interior repair hubs under the primary.  The
        # aio tree is *static* — built once from the balanced contiguous
        # construction; runtime re-scoring is a simulator feature (real
        # deployments would re-score from the same TWaitEstimator data).
        # Tree nodes are named abstractly ("leaf{i}", "hub{level}-{k}-
        # logger"); ``members`` maps them to machines and sockets.
        if depth < 2:
            raise ConfigError(f"depth must be >= 2, got {depth}")
        if depth > 2 and n_secondaries < 1:
            raise ConfigError("depth > 2 requires n_secondaries >= 1")
        self._leaves = [f"leaf{i}" for i in range(n_secondaries)]
        if self._leaves:
            self.tree = build_tree("primary", self._leaves, depth=depth, fanout=fanout)
        else:
            self.tree = LoggerTree("primary")
        self._use_discovery = use_discovery
        self._discovery_config = discovery or DiscoveryConfig()
        self._enable_statack = enable_statack
        self._retrans_channel = retrans_channel

        # tree-node name -> (machine, node) for every logger of the tree.
        self.members: dict[str, tuple[LogServer, AioNode]] = {}
        self.primary: LogServer | None = None
        self.primary_node: AioNode | None = None
        self.replicas: list[LogServer] = []
        self.replica_nodes: list[AioNode] = []
        self.secondaries: list[LogServer] = []
        self.secondary_nodes: list[AioNode] = []
        self.interior_loggers: list[LogServer] = []
        self.interior_nodes: list[AioNode] = []
        self.sender: LbrmSender | None = None
        self.sender_node: AioNode | None = None
        self.receivers: list[LbrmReceiver] = []
        self.receiver_nodes: list[AioNode] = []
        self.discovery_clients: list[DiscoveryClient] = []
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    async def _start_node(self, machine_for) -> tuple:
        """Bind a node, build its machine from it, and start the machine."""
        node = AioNode(directory=self.directory, interface=self._interface, **self._node_kwargs)
        await node.start()
        machine = machine_for(node)
        node.machines.append(machine)
        await node.run_machine(machine.start, node.now)
        return machine, node

    async def _start_logger(self, name: str, **kwargs) -> tuple[LogServer, AioNode]:
        """Start tree node ``name``'s log server (its parent is bound already)."""
        self.members[name] = entry = await self._start_node(
            lambda node: tree_logger(
                self.tree, name, self.group, self.config,
                addr_token=node.token,
                address_of=lambda parent: self.members[parent][1].address,
                **kwargs,
            )
        )
        return entry

    async def start(self) -> None:
        """Bind every endpoint and wire addresses in dependency order."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True

        # Replicas first: the primary needs their addresses.
        for _ in range(self._n_replicas):
            replica, node = await self._start_node(
                lambda node: LogServer(
                    self.group, addr_token=node.token, config=self.config,
                    role=LoggerRole.REPLICA, parse_token=parse_token,
                )
            )
            self.replicas.append(replica)
            self.replica_nodes.append(node)

        # The tree top-down, so each level's parents are already bound
        # when its children start: primary, interior hubs, then the site
        # secondaries — each joins the group, logs the stream, and
        # escalates its own holes to its tree parent's address.
        self.primary, self.primary_node = await self._start_logger(
            "primary", replicas=tuple(n.address for n in self.replica_nodes)
        )
        for level in range(1, self.tree.depth - 1):
            for name in self.tree.at_level(level):
                hub, node = await self._start_logger(name)
                self.interior_loggers.append(hub)
                self.interior_nodes.append(node)
        for name in self._leaves:
            secondary, node = await self._start_logger(name)
            self.secondaries.append(secondary)
            self.secondary_nodes.append(node)

        self.sender, self.sender_node = await self._start_node(
            lambda node: LbrmSender(
                self.group, self.config,
                primary=self.primary_node.address,
                replicas=tuple(n.address for n in self.replica_nodes),
                enable_statack=self._enable_statack,
                retrans_channel=self._retrans_channel,
                addr_token=node.token,
                # Tuple addresses must re-render as "host:port" tokens after a
                # failover; str() would produce an unparseable repr.
                format_token=addr_token,
            )
        )
        for logger in (*self.replicas, *(machine for machine, _ in self.members.values())):
            logger.set_source(self.sender_node.address)

        for i in range(self._n_receivers):
            receiver, node = await self._start_node(
                lambda node: LbrmReceiver(
                    self.group, self.config.receiver,
                    logger_chain=() if self._use_discovery else self._static_chain(i),
                    source=self.sender_node.address,
                    heartbeat=self.config.heartbeat,
                    parse_token=parse_token,
                )
            )
            if self._use_discovery:
                client = DiscoveryClient(
                    self.group, self._discovery_config, parse_token=parse_token
                )
                node.machines.append(client)
                node.on_event = self._make_discovery_handler(receiver)
                self.discovery_clients.append(client)
                await node.run_machine(client.start, node.now)
            self.receivers.append(receiver)
            self.receiver_nodes.append(node)

    def _chain_from(self, name: str) -> tuple:
        """Addresses of the escalation chain from tree node ``name`` up
        through every interior hub to the primary."""
        return tuple(self.members[n][1].address for n in self.tree.chain(name))

    def _static_chain(self, receiver_index: int) -> tuple:
        """Recovery chain for one receiver (round-robin assignment
        across the site secondaries; the primary alone without any)."""
        leaves = self._leaves or [self.tree.root]
        return self._chain_from(leaves[receiver_index % len(leaves)])

    def _make_discovery_handler(self, receiver: LbrmReceiver):
        """Event tap installing the discovered (or fallback) chain."""

        def on_event(event: Event, now: float) -> None:
            assert self.primary_node is not None
            if isinstance(event, LoggerDiscovered):
                # A logger of this tree brings its whole chain (so a
                # site secondary under interior hubs escalates through
                # them); a stranger is tried first, then the primary.
                name = next(
                    (n for n, (_m, node) in self.members.items() if node.address == event.logger),
                    None,
                )
                receiver.set_logger_chain(
                    self._chain_from(name) if name else (event.logger, self.primary_node.address)
                )
            elif isinstance(event, DiscoveryExhausted):
                # §2.2.1: every ring stayed silent — fall back to the
                # statically configured primary.
                receiver.set_logger_chain((self.primary_node.address,))

        return on_event

    async def wait_discovery(self, timeout: float = 10.0) -> None:
        """Block until every discovery client resolved (found or gave up)."""
        deadline = asyncio.get_running_loop().time() + timeout
        while any(c.searching for c in self.discovery_clients):
            if asyncio.get_running_loop().time() >= deadline:
                raise TimeoutError("discovery did not resolve in time")
            await asyncio.sleep(0.05)

    async def publish(self, payload: bytes) -> int:
        """Multicast application data; returns the sequence number."""
        assert self.sender is not None and self.sender_node is not None
        await self.sender_node.send(self.sender, payload)
        return self.sender.seq

    async def publish_burst(self, payloads) -> int:
        """Multicast a burst of payloads in one event-loop tick.

        Returns the last sequence number.  With ``bundling=True`` the
        burst leaves the sender coalesced into MTU-sized bundles.
        """
        assert self.sender is not None and self.sender_node is not None
        await self.sender_node.send_many(self.sender, payloads)
        return self.sender.seq

    async def deliveries(self, receiver_index: int, count: int, timeout: float = 3.0):
        """Await ``count`` deliveries at one receiver."""
        node = self.receiver_nodes[receiver_index]
        out = []
        for _ in range(count):
            out.append(await asyncio.wait_for(node.delivery_queue.get(), timeout))
        return out

    @property
    def nodes(self) -> list[AioNode]:
        nodes: list[AioNode] = []
        nodes.extend(self.replica_nodes)
        if self.primary_node is not None:
            nodes.append(self.primary_node)
        nodes.extend(self.interior_nodes)
        nodes.extend(self.secondary_nodes)
        if self.sender_node is not None:
            nodes.append(self.sender_node)
        nodes.extend(self.receiver_nodes)
        return nodes

    async def close(self) -> None:
        for node in self.nodes:
            await node.close()

    async def __aenter__(self) -> "AioCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
