"""Link and loss-model tests: latency, serialization, queueing, drops."""

from __future__ import annotations

import random

import pytest

from repro.simnet.links import Link
from repro.simnet.loss import (
    BernoulliLoss,
    BurstLoss,
    CompositeLoss,
    NoLoss,
)


class TestLink:
    def test_pure_latency(self):
        link = Link("l", latency=0.01)
        assert link.transit(100, now=1.0) == pytest.approx(1.01)

    def test_serialization_delay(self):
        # 1000 bytes at 1 Mbit/s = 8 ms + 1 ms propagation
        link = Link("l", latency=0.001, bandwidth=1_000_000)
        assert link.transit(1000, now=0.0) == pytest.approx(0.009)

    def test_back_to_back_queueing(self):
        link = Link("l", latency=0.0, bandwidth=1_000_000)
        first = link.transit(1000, now=0.0)
        second = link.transit(1000, now=0.0)  # queued behind the first
        assert first == pytest.approx(0.008)
        assert second == pytest.approx(0.016)

    def test_queue_overflow_drops(self):
        link = Link("l", bandwidth=1_000_000, queue_limit=2)
        results = [link.transit(1000, now=0.0) for _ in range(5)]
        delivered = [r for r in results if r is not None]
        assert len(delivered) == 3  # 1 in service + 2 queued
        assert link.stats.drops_queue == 2

    def test_loss_model_applied(self):
        link = Link("l", loss=BernoulliLoss(1.0, random.Random(0)))
        assert link.transit(100, now=0.0) is None
        assert link.stats.drops_loss == 1
        assert link.stats.packets == 0

    def test_stats_accumulate(self):
        link = Link("l")
        link.transit(100, 0.0)
        link.transit(200, 0.0)
        assert link.stats.packets == 2
        assert link.stats.bytes == 300
        link.stats.reset()
        assert link.stats.packets == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Link("l", latency=-1)
        with pytest.raises(ValueError):
            Link("l", bandwidth=-1)
        with pytest.raises(ValueError):
            Link("l", queue_limit=-1)


class TestLossModels:
    def test_no_loss(self):
        model = NoLoss()
        assert not any(model.drops(t) for t in range(100))

    def test_bernoulli_rate(self):
        model = BernoulliLoss(0.3, random.Random(42))
        drops = sum(model.drops(0.0) for _ in range(10_000))
        assert drops / 10_000 == pytest.approx(0.3, abs=0.02)

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(0))

    def test_burst_window_total_loss(self):
        model = BurstLoss([(1.0, 2.0)])
        assert not model.drops(0.5)
        assert model.drops(1.0)
        assert model.drops(1.99)
        assert not model.drops(2.0)  # half-open interval

    def test_burst_multiple_windows(self):
        model = BurstLoss([(1.0, 2.0), (5.0, 6.0)])
        assert model.drops(5.5)
        assert not model.drops(3.0)

    def test_burst_with_base_model(self):
        model = BurstLoss([(1.0, 2.0)], base=BernoulliLoss(1.0, random.Random(0)))
        assert model.drops(0.5)  # base drops outside windows

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            BurstLoss([(2.0, 1.0)])

    def test_composite_any_drop(self):
        model = CompositeLoss(NoLoss(), BurstLoss([(0.0, 1.0)]))
        assert model.drops(0.5)
        assert not model.drops(2.0)

    def test_composite_advances_all_members(self):
        rng, twin = random.Random(0), random.Random(0)
        model = CompositeLoss(BurstLoss([(0.0, 10.0)]), BernoulliLoss(0.5, rng))
        model.drops(0.5)  # burst drops, but the Bernoulli stream must still advance
        twin.random()
        assert rng.getstate() == twin.getstate()
