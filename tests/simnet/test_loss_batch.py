"""Vectorized loss draws: batched fan-out must be draw-for-draw exact.

``drops_batch`` exists so one multicast transmission makes one call per
loss-model instance instead of one per receiver.  Its contract is
strict stream equivalence: same verdicts as sequential ``drops`` calls,
same RNG consumption, same model state afterwards — a same-seed run may
never change by a byte when batching is toggled.  The suite closes with
the end-to-end form of that guarantee: a fig7-style lossy deployment
replayed with ``batch_delivery`` on (which also turns on the
shared-deadline :class:`~repro.simnet.engine.WakeupMux`) and with it
off (one engine event per receiver, one cancellable wakeup per node)
produces byte-identical packet traces and protocol outcomes — down to every node's delivery list and
every host's counters, and through every kind of endpoint the one
delivery loop (:meth:`SimNode.receive_batch`) has to get right.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.machine import ProtocolMachine
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment
from repro.simnet.loss import BurstLoss, CompositeLoss, GilbertElliottLoss, NoLoss

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
        if kind == "gilbert":
            return GilbertElliottLoss(
                p_good_to_bad=0.1, p_bad_to_good=0.3, loss_good=0.05,
                loss_bad=0.9, rng=rng,
            )
        if kind == "burst":
            return BurstLoss([(2.0, 4.0)], base=BernoulliLoss(0.2, rng))
        if kind == "composite":
            return CompositeLoss(
                BurstLoss([(2.0, 4.0)]),
                BernoulliLoss(0.2),
                GilbertElliottLoss(loss_bad=1.0),
                rng=rng,
            )
        return NoLoss()
    return build(), build()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["bernoulli", "gilbert", "burst", "composite", "none"]),
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
    split, joined = _model_pair("gilbert", seed)
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
    ge = GilbertElliottLoss(
        p_good_to_bad=0.02, p_bad_to_good=0.25, loss_good=0.0, loss_bad=1.0,
        rng=random.Random(7),
    )
    outcomes = ge.drops_batch(0.0, 50_000)
    # steady state: pi_bad = 0.02/(0.02+0.25) ~ 0.074
    assert sum(outcomes) / len(outcomes) == pytest.approx(0.074, abs=0.02)
    # Burstiness survives batching: runs of consecutive losses exist.
    max_run = run = 0
    for o in outcomes:
        run = run + 1 if o else 0
        max_run = max(max_run, run)
    assert max_run >= 5


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
