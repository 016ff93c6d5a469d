"""Loss draws and the batched fan-out: draw-for-draw exact.

``drops_batch``'s contract is strict stream equivalence: same verdicts as
sequential ``drops`` calls, same RNG consumption, same model state
afterwards.  (The fan-out no longer calls it — no shipped configuration
shares one model between hosts, so it draws ``drops(at)`` per host — but
the frozen perf ledger still wraps it, so the models keep it and this
suite keeps its contract.)  Then the end-to-end form of the guarantee
that matters: a same-seed run may never change by a byte when batching
is toggled.  A fig7-style lossy deployment
replayed with ``batch_delivery`` on (which also turns on the
shared-deadline :class:`~repro.simnet.engine.WakeupMux`) and with it
off (one engine event per receiver, one cancellable wakeup per node)
produces byte-identical packet traces and protocol outcomes — down to every node's delivery list and
every host's counters, and through every kind of endpoint the one
delivery loop (:meth:`SimNode.receive_batch`) has to get right.  The
suite closes with the same differential as a property over small random
networks: the fan-out's walk over per-site segments against the
per-receiver reference loop.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.machine import ProtocolMachine
from repro.core.packets import DataPacket
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment
from repro.simnet.engine import Simulator
from repro.simnet.loss import BurstLoss, CompositeLoss, NoLoss
from repro.simnet.topology import Network

# -- model-level stream equivalence ------------------------------------------

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_COUNTS = st.integers(min_value=0, max_value=64)
_TIMES = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def _model_pair(kind: str, seed: int):
    """Two identically-seeded instances of one model kind."""
    def build():
        rng = random.Random(seed)
        if kind == "bernoulli":
            return BernoulliLoss(0.3, rng)
        if kind == "burst":
            return BurstLoss([(2.0, 4.0)], base=BernoulliLoss(0.2, rng))
        if kind == "composite":
            return CompositeLoss(
                BurstLoss([(2.0, 4.0)]),
                BernoulliLoss(0.2, rng),
                BernoulliLoss(0.6, random.Random(seed + 1)),
            )
        return NoLoss()
    return build(), build()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["bernoulli", "burst", "composite", "none"]),
    _SEEDS,
    st.lists(st.tuples(_TIMES, _COUNTS), min_size=1, max_size=8),
)
def test_drops_batch_is_stream_equivalent(kind, seed, calls):
    """Batched and sequential draws agree verdict-for-verdict, and leave
    the model in the same state (later draws agree too)."""
    batched, sequential = _model_pair(kind, seed)
    for now, count in calls:
        assert batched.drops_batch(now, count) == [
            sequential.drops(now) for _ in range(count)
        ]
    # State equivalence: one more interleaved round in each style.
    assert [batched.drops(5.0) for _ in range(8)] == sequential.drops_batch(5.0, 8)


@settings(max_examples=60, deadline=None)
@given(_SEEDS, _COUNTS, _COUNTS)
def test_drops_batch_split_invariance(seed, first, second):
    """Two batches draw exactly like one batch of the combined size."""
    split, joined = _model_pair("composite", seed)
    assert (
        split.drops_batch(0.0, first) + split.drops_batch(0.0, second)
        == joined.drops_batch(0.0, first + second)
    )


def test_burst_window_batch_does_not_advance_base_stream():
    """Inside a burst window everything drops without touching the base
    model's RNG — exactly like the sequential early return."""
    base = BernoulliLoss(0.5, random.Random(3))
    model = BurstLoss([(1.0, 2.0)], base=base)
    witness = BernoulliLoss(0.5, random.Random(3))
    assert model.drops_batch(1.5, 100) == [True] * 100
    # The base stream is untouched: it still agrees with a fresh twin.
    assert base.drops_batch(0.0, 64) == witness.drops_batch(0.0, 64)


def test_batched_loss_rate_statistics():
    """The vectorized path still realizes the configured loss rate."""
    model = BernoulliLoss(0.3, random.Random(42))
    draws = 50_000
    drops = sum(model.drops_batch(0.0, draws))
    assert drops / draws == pytest.approx(0.3, abs=0.02)


# -- end-to-end: batching toggles nothing observable -------------------------


def _outcome(dep: LbrmDeployment) -> dict:
    """Every count, and what each node's application saw, delivery by delivery."""
    return {
        "network": dict(dep.network.stats),
        "receivers": [dict(r.stats) for r in dep.receivers],
        "missing": dep.receivers_missing(),
        "trace_counts": dict(dep.trace.counts),
        "delivered": {n.name: [tuple(d) for d in n.delivered] for n in dep.all_nodes()},
        "events": {n.name: list(n.events) for n in dep.all_nodes()},
        "hosts": {h.name: (h.rx_packets, h.rx_dropped) for h in dep.network.hosts},
    }


def _lossy_scenario(seed: int, batch: bool):
    """Fig7's shape in miniature: burst outage + steady seeded loss.

    Returns the trace, the outcome and the engine's tombstone count
    after every ``advance``."""
    with obs.recording() as reg:
        dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=3, seed=seed))
        dep.network.batch_delivery = batch
        tombstones = []

        def advance(dt: float) -> None:
            dep.advance(dt)
            tombstones.append(dep.sim.tombstones)

        dep.start()
        dep.network.host("site2-rx0").inbound_loss = BernoulliLoss(
            0.3, dep.streams.stream("flaky-rx")
        )
        advance(0.2)
        for i in range(3):
            dep.send(f"packet-{i}".encode())
            advance(0.3)
        dep.burst_site("site1", duration=0.2)
        for i in range(3, 6):
            dep.send(f"packet-{i}".encode())
            advance(0.3)
        advance(8.0)
        return reg.trace.events(), _outcome(dep), tombstones


@pytest.mark.parametrize("seed", [11, 1995])
def test_same_seed_trace_identical_with_and_without_batching(seed):
    """The shipped configuration (delivery batching + wakeup mux)
    against the per-receiver fan-out with one cancellable wakeup per
    node: no trace byte, no stat differs.  This is the differential
    ``repro bench`` ran between its two legs before it measured only
    the shipped one."""
    trace_batched, outcome_batched, tombstones_batched = _lossy_scenario(seed, batch=True)
    trace_reference, outcome_reference, tombstones_reference = _lossy_scenario(seed, batch=False)
    assert len(trace_batched) > 0
    assert trace_batched == trace_reference
    assert outcome_batched == outcome_reference
    # The per-receiver leg is the only producer of cancels left (DESIGN §6,
    # tests/simnet/test_engine_traffic.py): it did cancel, and the heap's
    # lazy deletion drained every tombstone by the end.
    assert set(tombstones_batched) == {0}
    assert max(tombstones_reference) > 0 and tombstones_reference[-1] == 0


class _Tap:
    """A non-``SimNode`` endpoint: records what the network hands it."""

    def __init__(self) -> None:
        self.received: list[tuple] = []

    def receive(self, packet, src, now) -> None:
        self.received.append((type(packet).__name__, getattr(packet, "seq", None), src, now))


class _Seen(ProtocolMachine):
    """A second machine on a receiver's node: logs the times it is shown."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple] = []

    def handle(self, packet, src, now):
        self.seen.append((type(packet).__name__, getattr(packet, "seq", None), now))
        return []


def _every_endpoint_scenario(batch: bool, foreign_observer: bool):
    """A loss-free train through one of each thing the delivery loop must
    treat per host: a skewed clock, a paused node, a crashed node, two
    machines on one node, a foreign endpoint, and a delivery callback
    that pauses the *next* receiver of the same co-timed batch."""
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=5, seed=7))
    net = dep.network
    net.batch_delivery = batch
    observed: list[tuple] = []
    if foreign_observer:
        # What the chaos oracle does: chain the per-packet observer (which
        # drops the amortized batch observer, so every host is observed
        # right before its own receive).
        chained = net.observer

        def observer(kind, packet, src, dst, now):
            observed.append((kind, type(packet).__name__, src, dst, now, net.host(dst).rx_packets))
            chained(kind, packet, src, dst, now)

        net.observer = observer
    tap = _Tap()
    net.add_host("site1-tap", net.site("site1")).attach(tap)
    net.join(dep.spec.group, "site1-tap")
    second = _Seen()
    dep.node("site1-rx3").add_machine(second)
    dep.node("site1-rx0").clock_skew = 0.3
    pauser, paused_next = dep.node("site2-rx0"), dep.node("site2-rx1")
    pauser._on_deliver = lambda d, now: paused_next.pause() if d.seq == 3 else None
    dep.start()
    dep.advance(0.2)
    for i in range(8):
        if i == 2:
            dep.node("site1-rx1").pause()
            dep.node("site1-rx2").crash()
        if i == 5:
            dep.node("site1-rx1").resume()
            dep.node("site1-rx2").restart()
            paused_next.resume()
        dep.send(f"packet-{i}".encode())
        dep.advance(0.05)
    dep.advance(8.0)
    return {"tap": tap.received, "second_machine": second.seen, "observed": observed, **_outcome(dep)}


@pytest.mark.parametrize("foreign_observer", [False, True])
def test_delivery_loop_matches_the_reference_fanout_for_every_endpoint(foreign_observer):
    batched = _every_endpoint_scenario(True, foreign_observer)
    reference = _every_endpoint_scenario(False, foreign_observer)
    assert batched == reference
    # The scenario reached what it is for.
    delivered = batched["delivered"]
    assert [d[0] for d in delivered["site2-rx0"]] == list(range(1, 9))
    assert (3, b"packet-2", True) in delivered["site2-rx1"]  # paused by its neighbour mid-batch
    assert any(d[2] for d in delivered["site1-rx1"]) and any(d[2] for d in delivered["site1-rx2"])
    assert delivered["site1-rx0"] == delivered["site2-rx0"]  # skew moves no delivery
    assert len([t for t in batched["tap"] if t[0] == "DataPacket"]) == 8
    assert [s for s in batched["second_machine"] if s[0] == "DataPacket"]
    assert bool(batched["observed"]) == foreign_observer


# -- the segment walk against the per-receiver loop, as a property -----------


class _SeqChaos:
    """A chaos hook that drops, duplicates or passes by sequence number,
    and remembers the order it was asked in."""

    def __init__(self) -> None:
        self.asked: list[tuple] = []

    def arrivals(self, packet, src, dst, at):
        self.asked.append((packet.seq, dst, at))
        return [[], [at, at + 0.004], [at]][(packet.seq + len(dst)) % 3]


_LOSS_KINDS = st.sampled_from(["none", "own", "shared", "burst"])


@st.composite
def _fanout_worlds(draw):
    """A small network as plain data (built twice, once per delivery path).

    Host names are ``h<rank>`` with the ranks shuffled over all hosts, so
    two sites' members interleave in the sorted member order the fan-out
    walks."""
    sites = draw(st.lists(st.lists(_LOSS_KINDS, max_size=4), min_size=2, max_size=4))
    slots = [(s, kind) for s, kinds in enumerate(sites) for kind in kinds]
    ranks = draw(st.permutations(range(len(slots))))
    hosts = [(f"h{rank}", s, kind) for rank, (s, kind) in zip(ranks, slots)]
    inside = bool(hosts) and draw(st.booleans())
    return {
        "tail_latency": [draw(st.sampled_from([0.02, 0.03])) for _ in sites],
        "lossy_tails": [draw(st.booleans()) for _ in sites],
        "hosts": hosts,
        "src": draw(st.sampled_from(hosts))[0] if inside else None,
        "outsider_site": draw(st.integers(0, len(sites) - 1)),
        "ttl": draw(st.sampled_from([None, 0, 1, 4])),
        "chaos": draw(st.booleans()),
        "seed": draw(_SEEDS),
    }


def _fanout_train(world: dict, batch: bool) -> dict:
    """Send a short train through ``world``; everything anyone could see."""
    sim = Simulator()
    net = Network(sim)
    net.batch_delivery = batch
    rngs = [random.Random(world["seed"] + k) for k in range(len(world["hosts"]) + 5)]
    spare = iter(rngs)
    for s, latency in enumerate(world["tail_latency"]):
        net.add_site(
            f"s{s}", tail_latency=latency,
            tail_loss_down=BernoulliLoss(0.3, next(spare)) if world["lossy_tails"][s] else None,
        )
    shared = BernoulliLoss(0.4, next(spare))
    received: list[tuple] = []

    class Sink:
        def __init__(self, name):
            self.name = name

        def receive(self, packet, src, now):
            received.append((self.name, packet.seq, src, now))

    for name, s, kind in world["hosts"]:
        loss = None
        if kind == "own":
            loss = BernoulliLoss(0.4, next(spare))
        elif kind == "shared":
            loss = shared
        elif kind == "burst":
            loss = BurstLoss([(0.05, 0.16)])
        net.add_host(name, net.site(f"s{s}"), inbound_loss=loss).attach(Sink(name))
        net.join("g", name)
    src = world["src"]
    if src is None:
        src = "outsider"
        net.add_host(src, net.site(f"s{world['outsider_site']}")).attach(Sink(src))
    observed: list[tuple] = []
    net.observer = lambda kind, packet, s, dst, now: observed.append((kind, packet.seq, s, dst, now))
    chaos = net.chaos = _SeqChaos() if world["chaos"] else None
    for seq in range(1, 5):
        net.send_multicast(src, "g", DataPacket(group="g", seq=seq, payload=b"x"), ttl=world["ttl"])
        sim.run_until(sim.now + 0.05)
    sim.run()
    return {
        "observed": observed,
        "received": received,
        "hosts": {h.name: (h.rx_packets, h.rx_dropped) for h in net.hosts},
        "stats": dict(net.stats),
        "ended_at": sim.now,
        "chaos": chaos.asked if chaos else None,
        "links": {
            link.name: vars(link.stats)
            for site in net.sites for link in (site.lan, site.tail_up, site.tail_down)
        },
        "rng_states": [rng.getstate() for rng in rngs],
    }


@settings(max_examples=300, deadline=None)
@given(_fanout_worlds())
def test_segment_walk_matches_the_per_receiver_loop(world):
    """``send_multicast`` decides per run of consecutive same-site members;
    ``_send_multicast_reference`` decides per member.  Whatever the member
    order, loss models, scope, source and chaos hook: the same ordered
    observer calls, the same deliveries, counters and link charges, and
    every RNG left where the reference leaves it."""
    assert _fanout_train(world, batch=True) == _fanout_train(world, batch=False)
