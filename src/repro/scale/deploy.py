"""Aggregate-scale LBRM deployments.

The same :class:`repro.simnet.deploy.TreeDeployment` build as
:class:`~repro.simnet.deploy.LbrmDeployment` — hub site (source +
primary at ``site0``), logger tree of real
:class:`~repro.core.logger.LogServer` machines, lifecycle —
but each receiver site hosts a single :class:`AggregateSiteReceiver`
standing in for N receivers instead of N receiver nodes.  A 200-site ×
500-receiver deployment is 402 simulated hosts modeling 100,000
receivers.

Shard-safety invariants (relied on by :mod:`repro.scale.shard`):

* every RNG stream is **name-derived** (``site:<name>``, ``loss:<name>``,
  ``logger:<name>``, ``sender``) — a site draws identical randomness no
  matter which worker builds it, or how many other sites that worker
  holds;
* hub links and the backbone are deterministic (latency only: no loss,
  no bandwidth, no jitter), so the replicated hub consumes zero RNG and
  evolves identically in every shard;
* statistical acknowledgement stays off — it is the one mechanism whose
  hub behaviour depends on the *set* of responding sites;
* the primary never re-multicasts repairs (it answers each requester by
  unicast, see ``LogServer._repair``), so one site's losses never
  change what another site receives.

``site_indices`` builds a deployment holding only a subset of the
receiver sites — the per-worker view of a sharded run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import LbrmConfig
from repro.scale.aggregate import AggregateSiteReceiver
from repro.simnet.deploy import TreeDeployment
from repro.simnet.engine import Simulator
from repro.simnet.loss import BernoulliLoss
from repro.simnet.node import SimNode
from repro.simnet.topology import Site

__all__ = ["ScaleSpec", "AggregateDeployment"]


@dataclass(frozen=True)
class ScaleSpec:
    """Shape of an aggregate-scale deployment.

    ``receivers_per_site`` is the modeled population behind each
    aggregate host; ``receiver_loss`` the independent per-receiver loss
    probability (what the exact engine expresses as per-host
    ``inbound_loss``); ``shared_loss`` the per-transmission probability
    that a site's tail circuit drops the packet for the whole site.
    Latency defaults match :class:`repro.simnet.deploy.DeploymentSpec`
    (§2.2.2 ping survey).  Tail bandwidth/queueing are deliberately
    absent: scale runs keep every link latency-only so the replicated
    hub stays deterministic (see module docstring).
    """

    group: str = "dis/terrain/1"
    n_sites: int = 50
    receivers_per_site: int = 20
    receiver_loss: float = 0.01
    shared_loss: float = 0.0
    lan_latency: float = 0.001
    tail_latency: float = 0.0175
    backbone_latency: float = 0.0025
    config: LbrmConfig = field(default_factory=LbrmConfig)
    seed: int = 0

    def wan_one_way(self) -> float:
        """Cross-site one-way latency — the conservative sync window.

        Any event one site emits takes at least this long to influence
        another site (or the hub): LAN → tail-up → backbone → tail-down
        → LAN.  The sharded runner uses it as the barrier quantum.
        """
        return 2 * self.lan_latency + 2 * self.tail_latency + self.backbone_latency


class AggregateDeployment(TreeDeployment):
    """A built aggregate-scale deployment: hub, site loggers, aggregates."""

    def __init__(
        self,
        spec: ScaleSpec | None = None,
        sim: Simulator | None = None,
        site_indices: tuple[int, ...] | None = None,
    ) -> None:
        super().__init__(spec or ScaleSpec(), sim)
        if site_indices is None:
            site_indices = tuple(range(1, self.spec.n_sites + 1))
        else:
            bad = [i for i in site_indices if not 1 <= i <= self.spec.n_sites]
            if bad:
                raise ValueError(f"site indices out of range 1..{self.spec.n_sites}: {bad}")
        self.site_indices = tuple(site_indices)
        self.aggregates: list[AggregateSiteReceiver] = []
        self.aggregate_nodes: list[SimNode] = []
        self._build(self.site_indices)

    # -- construction ----------------------------------------------------

    def _add_site(self, name: str) -> Site:
        spec = self.spec
        shared = None
        if name != "site0" and spec.shared_loss > 0.0:  # hub links stay deterministic
            shared = BernoulliLoss(
                spec.shared_loss, rng=self.streams.stream(f"loss:{name}.tail.down")
            )
        return self.network.add_site(
            name,
            lan_latency=spec.lan_latency,
            tail_latency=spec.tail_latency,
            tail_loss_down=shared,
        )

    def _populate(
        self, site: Site, index: int, chain: tuple[str, ...]
    ) -> list[AggregateSiteReceiver]:
        spec = self.spec
        agg_name = f"{site.name}-agg"
        aggregate = AggregateSiteReceiver(
            spec.group,
            spec.receivers_per_site,
            spec.receiver_loss,
            self.streams.stream(f"site:{site.name}:agg"),
            config=spec.config.receiver,
            logger_chain=chain,
            heartbeat=spec.config.heartbeat,
            remulticast_threshold=spec.config.logger.remulticast_threshold,
            node_name=agg_name,
        )
        self.aggregates.append(aggregate)
        self.aggregate_nodes.append(
            self._add_node(agg_name, site, aggregate, represents=spec.receivers_per_site)
        )
        return [aggregate]

    def _population_nodes(self) -> list[SimNode]:
        return self.aggregate_nodes

    # -- operation ----------------------------------------------------------

    def advance_to(self, t: float) -> None:
        """Run the simulation to absolute time ``t`` (barrier step)."""
        self.sim.run_until(t)

    def outstanding(self) -> int:
        """Modeled receivers still missing at least one packet."""
        return sum(agg.outstanding for agg in self.aggregates)

    def site_digests(self) -> dict[str, dict]:
        """Per-site deterministic summaries, keyed by site name."""
        return {
            f"site{i}": agg.digest()
            for i, agg in zip(self.site_indices, self.aggregates)
        }

    def hub_stats(self) -> dict:
        """Hub-side counters (primary log service + sender)."""
        return {
            "primary": dict(self.primary.stats),
            "sender_seq": self.sender.seq,
        }
