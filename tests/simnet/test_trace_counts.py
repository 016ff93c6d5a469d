"""The network's own packet counts against a per-host recount.

``Network`` tallies what it delivers and drops once per co-timed batch and
once per drop, from the scope its fan-out knows per segment (DESIGN §6);
:class:`~repro.simnet.trace.PacketTrace` reads those cells.  ``Recount``
is the rule they replace, run host by host from the observer: a host is
cross-site when its site is not the source host's, and a source with no
host counts local.  The two must agree on every path a packet takes —
batched fan-out, shared drops, per-host loss, TTL-scoped repairs, the
chaos mangler's per-host arrivals and a logger tree's unicasts.
"""

from __future__ import annotations

import importlib.util
import random
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chaos.schedule import Fault, PacketChaos
from repro.core.packets import DataPacket, PacketType
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment
from repro.simnet.engine import Simulator
from repro.simnet.loss import BernoulliLoss
from repro.simnet.topology import Network
from repro.simnet.trace import PacketTrace

_LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "workloads.py"


class Recount:
    """Counts each observed host under the per-host rule, in front of
    whatever tap the network had (a logger tree's, say)."""

    def __init__(self, net: Network) -> None:
        self.counts: Counter = Counter()
        self._net, self._chained = net, net.observer
        net.observer = self

    def __call__(self, kind, packet, src, hosts, now) -> None:
        src_host = self._net._hosts.get(src)
        for host in hosts:
            cross = src_host is not None and host.site is not src_host.site
            self.counts[kind, packet.TYPE, cross] += 1
        if self._chained is not None:
            self._chained(kind, packet, src, hosts, now)


def _recounted(dep: LbrmDeployment) -> Recount:
    """Recount from here on: the deployment's counts start again too."""
    dep.trace.reset()
    return Recount(dep.network)


def test_a_plain_deployment_installs_no_observer():
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=2))
    assert dep.network.observer is None
    dep.start()
    dep.send(b"x")
    dep.advance(1.0)
    # The network counts on: both sites' two receivers and logger.
    assert dep.trace.delivered(PacketType.DATA, cross_site=True) == 2 * 3


def test_the_exact_lossy_smoke_shape():
    spec = importlib.util.spec_from_file_location("ledger_workloads", _LEDGER)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOAD_CLASSES["exact_lossy"](1995, workloads.SIZES["exact_lossy"]["smoke"])
    workload.setup()
    recount = _recounted(workload.dep)
    workload.run(lambda: None)
    counts = workload.dep.trace.counts
    assert counts == recount.counts
    # Both scopes of delivery, and drops behind the tails, were exercised.
    assert counts["rx", PacketType.DATA, False] and counts["rx", PacketType.NACK, False]
    assert counts["rx", PacketType.RETRANS, True] and counts["drop", PacketType.DATA, True]


def test_a_ttl_scoped_site_remulticast():
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=4, seed=5))
    dep.start()
    dep.advance(0.5)
    recount = _recounted(dep)
    dep.send(b"a")
    dep.advance(0.5)
    dep.burst_site("site1", 0.1)  # the site's logger loses it too
    dep.send(b"b")
    dep.advance(5.0)
    assert dep.receivers_missing() == 0
    assert sum(logger.stats["retrans_multicast"] for logger in dep.site_loggers) >= 1
    counts = dep.trace.counts
    assert counts == recount.counts
    assert counts["rx", PacketType.RETRANS, False] >= 3  # the site heard one repair


def test_packet_chaos_with_duplication_and_corruption():
    with obs.recording() as reg:
        dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=3, seed=9))
        dep.start()
        dep.advance(0.5)
        chaos = dep.network.chaos = PacketChaos(
            [Fault("duplicate", at=0.5, duration=1.0, amount=0.3),
             Fault("corrupt", at=0.8, duration=1.0, amount=0.3)],
            random.Random(4),
        )
        recount = _recounted(dep)
        for i in range(8):
            dep.send(b"x%d" % i)
            dep.advance(0.2)
        dep.advance(10.0)
    assert chaos.mangled > 10 and dep.receivers_missing() == 0
    counts = dep.trace.counts
    assert counts == recount.counts
    assert counts["drop", PacketType.DATA, True] > 0
    # The registry mirror counts every packet of the run (the recount
    # began after the warm-up, which the mirror also saw).
    for (kind, ptype, cross), n in counts.items():
        mirrored = reg.counter_value(
            "simnet.packets", kind=kind, ptype=PacketType(ptype).name, scope="cross" if cross else "local"
        )
        assert mirrored >= n


def test_a_depth_three_tree_with_a_hub_outage():
    dep = LbrmDeployment(DeploymentSpec(n_sites=9, receivers_per_site=2, depth=3, fanout=3, seed=11))
    dep.start()
    assert dep.network.observer is not None  # the tree's tap, which the recount chains
    dep.advance(0.5)
    recount = _recounted(dep)
    dep.send(b"a")
    dep.advance(0.3)
    dep.node("hub1-1-logger").crash()
    dep.burst_site("site5", 0.3)
    dep.send(b"b")
    dep.advance(0.3)
    dep.send(b"c")
    dep.advance(15.0)
    assert dep.hierarchy.manager.moves and dep.receivers_missing() == 0
    assert dep.trace.counts == recount.counts


# -- the same, fuzzed: co-timed batches that mix both scopes --------------------


@st.composite
def _worlds(draw):
    """Two to four sites of up to three hosts; with zero latencies a
    site-local and a remote delivery share one arrival time."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    hosts = [(f"h{s}{j}", s) for s, n in enumerate(sizes) for j in range(n)]
    return {
        "zero_latency": draw(st.booleans()),
        "hosts": hosts,
        "lossy": [draw(st.booleans()) for _ in hosts],
        "lossy_tails": [draw(st.booleans()) for _ in sizes],
        "src_site": draw(st.integers(0, len(sizes) - 1)),
        "ttl": draw(st.sampled_from([None, 1, 4])),
        "chaos": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=150, deadline=None)
@given(_worlds())
def test_fanout_counts_match_the_per_host_rule(world):
    sim = Simulator()
    net = Network(sim, backbone_latency=0.0 if world["zero_latency"] else 0.005)
    rng = random.Random(world["seed"])
    latency = {"lan_latency": 0.0, "tail_latency": 0.0} if world["zero_latency"] else {}
    n_sites = len(world["lossy_tails"])
    for s in range(n_sites):
        loss = BernoulliLoss(0.3, random.Random(rng.random())) if world["lossy_tails"][s] else None
        net.add_site(f"s{s}", tail_loss_down=loss, **latency)
    for (name, s), lossy in zip(world["hosts"], world["lossy"]):
        loss = BernoulliLoss(0.3, random.Random(rng.random())) if lossy else None
        net.add_host(name, net.site(f"s{s}"), inbound_loss=loss)
        net.join("g", name)
    src = world["hosts"][0][0] if world["hosts"] else net.add_host("src", net.site("s0")).name
    net.add_host("outsider", net.site(f"s{world['src_site']}"))
    if world["chaos"]:
        net.chaos = PacketChaos(
            [Fault("duplicate", at=0.0, duration=1.0, amount=0.5),
             Fault("corrupt", at=0.0, duration=1.0, amount=0.3)],
            random.Random(world["seed"]),
        )
    trace, recount = PacketTrace(net), Recount(net)
    for seq in range(1, 5):
        for sender in (src, "outsider"):
            net.send_multicast(sender, "g", DataPacket(group="g", seq=seq, payload=b"x"), ttl=world["ttl"])
            net.send_unicast(sender, world["hosts"][-1][0] if world["hosts"] else "src",
                             DataPacket(group="g", seq=seq, payload=b"y"))
        sim.run_until(sim.now + 0.05)
    sim.run()
    assert trace.counts == recount.counts
    assert sum(trace.counts.values()) == net.stats["delivered"] + net.stats["dropped"]
