"""Vectorized loss draws: batched fan-out must be draw-for-draw exact.

``drops_batch`` exists so one multicast transmission makes one call per
loss-model instance instead of one per receiver.  Its contract is
strict stream equivalence: same verdicts as sequential ``drops`` calls,
same RNG consumption, same model state afterwards — a same-seed run may
never change by a byte when batching is toggled.  The suite closes with
the end-to-end form of that guarantee: a fig7-style lossy deployment
replayed on the wheel engine with ``batch_delivery`` on (which also
turns on the shared-deadline :class:`~repro.simnet.engine.WakeupMux`)
and on the heap engine with it off produces byte-identical packet
traces and protocol outcomes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.packets import clear_codec_caches
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment
from repro.simnet.engine import ReferenceSimulator, Simulator
from repro.simnet.loss import BurstLoss, CompositeLoss, GilbertElliottLoss, NoLoss
from repro.simnet.topology import clear_wire_size_cache

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


def _lossy_scenario(seed: int, sim, batch: bool):
    """Fig7's shape in miniature: burst outage + steady seeded loss."""
    clear_codec_caches()
    clear_wire_size_cache()
    with obs.recording() as reg:
        dep = LbrmDeployment(
            DeploymentSpec(n_sites=3, receivers_per_site=3, seed=seed), sim=sim
        )
        dep.network.batch_delivery = batch
        dep.start()
        dep.network.host("site2-rx0").inbound_loss = BernoulliLoss(
            0.3, dep.streams.stream("flaky-rx")
        )
        dep.advance(0.2)
        for i in range(3):
            dep.send(f"packet-{i}".encode())
            dep.advance(0.3)
        dep.burst_site("site1", duration=0.2)
        for i in range(3, 6):
            dep.send(f"packet-{i}".encode())
            dep.advance(0.3)
        dep.advance(8.0)
        outcome = {
            "network": dict(dep.network.stats),
            "receivers": [dict(r.stats) for r in dep.receivers],
            "missing": dep.receivers_missing(),
            "trace_counts": dict(dep.trace.counts),
        }
        return reg.trace.events(), outcome


@pytest.mark.parametrize("seed", [11, 1995])
def test_same_seed_trace_identical_with_and_without_batching(seed):
    """The shipped configuration (wheel engine, delivery batching +
    wakeup mux) against the whole pre-batching one (heap engine,
    per-receiver fan-out): no trace byte, no stat differs.  This is the
    differential ``repro bench`` ran between its two legs before it
    measured only the shipped one."""
    trace_batched, outcome_batched = _lossy_scenario(seed, Simulator(), batch=True)
    trace_reference, outcome_reference = _lossy_scenario(
        seed, ReferenceSimulator(), batch=False
    )
    assert len(trace_batched) > 0
    assert trace_batched == trace_reference
    assert outcome_batched == outcome_reference
