"""Deterministic discrete-event network simulator for LBRM experiments.

Provides the substrate the paper ran on real hardware: a WAN of sites
with congestion-prone tail circuits (Figure 1), multicast distribution
trees with shared loss fate, TTL scoping, and a harness
(:class:`~repro.simnet.node.SimNode`) that carries the sans-IO protocol
machines of :mod:`repro.core`.
"""

from repro.simnet.deploy import DeploymentSpec, LbrmDeployment
from repro.simnet.engine import ScheduledEvent, Simulator
from repro.simnet.links import Link, LinkStats
from repro.simnet.loss import (
    BernoulliLoss,
    BurstLoss,
    LossModel,
    NoLoss,
)
from repro.simnet.node import SimNode
from repro.simnet.rng import RngStreams
from repro.simnet.topology import (
    CROSS_SITE_HOPS,
    SAME_SITE_HOPS,
    Host,
    Network,
    Site,
    wire_size,
)
from repro.simnet.trace import PacketTrace

__all__ = [
    "DeploymentSpec",
    "LbrmDeployment",
    "ScheduledEvent",
    "Simulator",
    "Link",
    "LinkStats",
    "BernoulliLoss",
    "BurstLoss",
    "LossModel",
    "NoLoss",
    "SimNode",
    "RngStreams",
    "CROSS_SITE_HOPS",
    "SAME_SITE_HOPS",
    "Host",
    "Network",
    "Site",
    "wire_size",
    "PacketTrace",
]
