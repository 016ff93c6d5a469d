"""The traffic the fan-out's shape rests on (DESIGN §6, "Fan-out is
per-site work").

``Network.send_multicast`` walks one table, ``group -> segments`` (runs of
consecutive sorted members behind one site, with their endpoints), draws
``loss.drops(at)`` per host and keeps no per-source plan, because counting
showed what the machinery it replaced was for never happens: no shipped
configuration shares one inbound-loss instance between hosts, so every
``drops_batch`` "batch" had size 1, and the ``(group, source, ttl)`` cache
was cleared wholesale by any run with more than 256 sources.  This file
pins that traffic and the table's invalidation points: a join or leave of
the group, a host added, a host's ``inbound_loss`` assigned, and a host
attached to an endpoint — each heard by the next multicast for exactly one
rebuild.  Whoever ships hosts that share a loss instance fails it, and
should reopen the batching question knowingly — with the per-workload
counts DESIGN §6 tables.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.chaos import sweep
from repro.core.packets import DataPacket
from repro.simnet import scenarios
from repro.simnet.deploy import LbrmDeployment
from repro.simnet.engine import Simulator
from repro.simnet.loss import BurstLoss
from repro.simnet.topology import Network

from .test_topology import Sink, build

_LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "workloads.py"


def _ledger_exact_lossy() -> Network:
    spec = importlib.util.spec_from_file_location("ledger_workloads", _LEDGER)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOAD_CLASSES["exact_lossy"](1995, workloads.SIZES["exact_lossy"]["smoke"])
    workload.setup()
    workload.run(lambda: None)
    return workload.dep.network


def _failover_sweep_case() -> Network:
    shape = sweep.TIERS["full"]
    dep = LbrmDeployment(sweep._spec(shape, 4, sweep.sweep_config()))
    sweep._apply_receiver_loss(dep, shape)
    sweep._drive(dep, shape)
    return dep.network


def _crying_baby() -> Network:
    _receivers, hosts = scenarios.run_lbrm_crying_baby(seed=0)
    return hosts[0]._network


# (world, segments per member site).  The deployments name a site's hosts
# ``site<i>-...``, so each site is one run; the crying-baby scenario is the
# shipped case of interleaving — ``lg<i>`` sorts apart from its site's
# ``m<i>-<j>`` — which is why segments are runs and not a per-site grouping.
@pytest.mark.parametrize(
    "world, runs_per_site",
    [(_ledger_exact_lossy, 1), (_failover_sweep_case, 1), (_crying_baby, 2)],
)
def test_no_shipped_world_shares_a_loss_instance_and_segments_follow_sites(world, runs_per_site):
    net = world()
    losses = [host.inbound_loss for host in net.hosts if host.inbound_loss is not None]
    assert losses and len(set(map(id, losses))) == len(losses)
    assert net._segments  # warm: the run multicast
    for segments, by_site in net._segments.values():
        assert sum(len(s.hosts) for s in segments) > len(segments)  # worth grouping
        assert max(len(runs) for runs in by_site.values()) == runs_per_site


# -- the table: built once, rebuilt exactly when it must be ------------------


@pytest.fixture
def builds(monkeypatch):
    """Calls of the table builder, counted from outside."""
    calls = []
    builder = Network._group_segments

    def counting(self, group):
        calls.append(group)
        return builder(self, group)

    monkeypatch.setattr(Network, "_group_segments", counting)
    return calls


def _send(net: Network, src: str, seq: int, ttl: int | None = None) -> None:
    net.send_multicast(src, "g", DataPacket(group="g", seq=seq, payload=b"x"), ttl=ttl)
    net.sim.run()


def _joined():
    sim, net, hosts = build()
    for name in hosts:
        net.join("g", name)
    return sim, net, hosts


def test_transmissions_share_one_table_whoever_sends_at_whatever_ttl(builds):
    sim, net, hosts = _joined()
    # 300 sources that are not members: the parent's (group, src, ttl)
    # plans hit their 256-key clear-all on this.
    for i in range(300):
        net.add_host(f"src{i}", net.site("s0"))
    _send(net, "a0", 0)
    assert len(builds) == 1
    for seq, name in enumerate(hosts, start=1):
        _send(net, name, seq)
        _send(net, name, seq, ttl=1)
    for i in range(300):
        _send(net, f"src{i}", 10 + i, ttl=1)
    assert len(builds) == 1
    # The first; everyone else's unscoped one; its site's scoped ones.
    assert len(hosts["a1"].endpoint.received) == 1 + 3 + (1 + 300)
    assert len(hosts["b0"].endpoint.received) == 1 + 3 + 1


def test_assigning_inbound_loss_is_heard_by_the_next_multicast(builds):
    sim, net, hosts = _joined()
    _send(net, "a0", 1)
    hosts["b0"].inbound_loss = BurstLoss([(0.0, 1e9)])
    _send(net, "a0", 2)
    assert (len(hosts["b0"].endpoint.received), net.stats["dropped"]) == (1, 1)
    assert len(builds) == 2
    hosts["b0"].inbound_loss = None
    _send(net, "a0", 3)
    assert (len(hosts["b0"].endpoint.received), net.stats["dropped"]) == (2, 1)
    assert len(builds) == 3
    assert len(hosts["b1"].endpoint.received) == 3


def test_join_leave_and_a_late_host_each_cost_one_rebuild(builds):
    sim, net, hosts = _joined()
    net.join("g", "late")  # joined before it exists: not an error, not a member yet
    _send(net, "a0", 1)
    assert len(builds) == 1
    late = net.add_host("late", net.site("s1"))
    late.attach(Sink())
    _send(net, "a0", 2)
    assert len(builds) == 2 and len(late.endpoint.received) == 1
    net.leave("g", "b0")
    _send(net, "a0", 3)
    assert len(builds) == 3 and len(hosts["b0"].endpoint.received) == 2
    net.join("g", "b0")
    _send(net, "a0", 4)
    assert len(builds) == 4 and len(hosts["b0"].endpoint.received) == 3
    net.join("other", "a1")  # another group's membership is not this one's business
    _send(net, "a0", 5)
    assert len(builds) == 4


def test_attaching_an_endpoint_is_heard_by_the_next_multicast(builds):
    sim, net, hosts = _joined()
    _send(net, "a0", 1)
    first, second = hosts["b0"].endpoint, Sink()
    hosts["b0"].attach(second)
    _send(net, "a0", 2)
    assert len(builds) == 2
    assert (len(first.received), len(second.received)) == (1, 1)
    _send(net, "a0", 3)
    assert len(builds) == 2 and len(second.received) == 2


# -- what a transmission may not do -------------------------------------------


def test_ttl_zero_reaches_nobody_drops_nothing_and_crosses_no_link():
    sim, net, hosts = _joined()
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"), ttl=0)
    assert sim.pending == 0
    assert net.stats == {"unicast_sent": 0, "multicast_sent": 1, "delivered": 0, "dropped": 0}
    assert net.site("s0").lan.stats.packets == 0


def test_a_segment_that_drops_whole_schedules_no_delivery():
    sim, net, hosts = _joined()
    for name in ("b0", "b1"):
        hosts[name].inbound_loss = BurstLoss([(0.0, 1e9)])
    net.send_multicast("a0", "g", DataPacket(group="g", seq=1, payload=b"x"))
    assert sim.pending == 1  # a1's; nothing empty for s1
    sim.run()
    assert net.stats["delivered"] == 1 and net.stats["dropped"] == 2


def test_hosts_are_identities():
    sim, net, hosts = build()
    twin = Network(Simulator())
    twin_host = twin.add_host("a0", twin.add_site("s0"))
    assert hosts["a0"] != twin_host and len({hosts["a0"], twin_host}) == 2
    assert repr(hosts["a0"]) == "Host('a0' @ s0)"
    # One key table for every host: attribute reads in the delivery loop
    # stay on the shared-keys fast path (nothing is poked in after __init__).
    assert list(vars(hosts["a0"])) == list(vars(twin_host))
