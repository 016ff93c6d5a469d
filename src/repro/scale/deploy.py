"""Aggregate-scale LBRM deployments.

The same :class:`repro.simnet.deploy.TreeDeployment` build, from the
same :class:`~repro.simnet.deploy.DeploymentSpec`, as
:class:`~repro.simnet.deploy.LbrmDeployment` — hub site (source +
primary at ``site0``), logger tree of real
:class:`~repro.core.logger.LogServer` machines, lifecycle —
but each receiver site hosts a single :class:`AggregateSiteReceiver`
standing in for N receivers instead of N receiver nodes.  A 200-site ×
500-receiver deployment is 402 simulated hosts modeling 100,000
receivers; ``receiver_loss`` is the aggregate's Binomial miss
probability.

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

A spec asking for what these exclude or the model lacks (interior hubs,
replicas, the centralized baseline, statack, tail bandwidth or queueing)
raises :class:`~repro.core.errors.ConfigError` instead of being ignored.

``site_indices`` builds a deployment holding only a subset of the
receiver sites — the per-worker view of a sharded run.
"""

from __future__ import annotations

from repro.core.errors import ConfigError
from repro.scale.aggregate import AggregateSiteReceiver
from repro.simnet.deploy import DeploymentSpec, TreeDeployment
from repro.simnet.engine import Simulator
from repro.simnet.node import SimNode
from repro.simnet.topology import Site

__all__ = ["AggregateDeployment"]

# The frozen ledger workloads import this name and pass every loss
# explicitly; ROADMAP item 1a deletes it.
ScaleSpec = DeploymentSpec


class AggregateDeployment(TreeDeployment):
    """A built aggregate-scale deployment: hub, site loggers, aggregates."""

    def __init__(
        self,
        spec: DeploymentSpec | None = None,
        sim: Simulator | None = None,
        site_indices: tuple[int, ...] | None = None,
    ) -> None:
        super().__init__(spec or DeploymentSpec(), sim)
        spec = self.spec
        unmodeled = [name for name, asked in (
            ("depth", spec.depth > 2), ("n_replicas", spec.n_replicas),
            ("secondary_loggers", not spec.secondary_loggers),
            ("enable_statack", spec.enable_statack),
            ("tail_bandwidth", spec.tail_bandwidth), ("tail_queue", spec.tail_queue),
        ) if asked]
        if unmodeled:
            raise ConfigError(f"the aggregate runtime does not model {', '.join(unmodeled)}")
        if site_indices is None:
            site_indices = tuple(range(1, spec.n_sites + 1))
        else:
            bad = [i for i in site_indices if not 1 <= i <= spec.n_sites]
            if bad:
                raise ValueError(f"site indices out of range 1..{spec.n_sites}: {bad}")
        self.site_indices = tuple(site_indices)
        self.aggregates: list[AggregateSiteReceiver] = []
        self.aggregate_nodes: list[SimNode] = []
        self._build(self.site_indices)

    # -- construction ----------------------------------------------------

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
