"""Packet-loss models for simulated links and hosts.

The paper's analysis (§2.1.1) uses a simple *burst* model — "the network
experiences a burst congestion period of duration t_burst during which a
given host receives no packets" — provided here as
:class:`BurstLoss` with deterministic windows.  For steadier background
loss, :class:`BernoulliLoss` drops i.i.d. and :class:`GilbertElliottLoss`
produces the correlated bursts real congestion exhibits.
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.simnet.rng import default_rng

__all__ = [
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "BurstLoss",
    "GilbertElliottLoss",
    "CompositeLoss",
]


class LossModel(Protocol):
    """Decides the fate of one packet crossing a link at time ``now``."""

    def drops(self, now: float) -> bool:
        """True when the packet is lost."""
        ...

    def drops_batch(self, now: float, count: int) -> list[bool]:
        """Fates of ``count`` packets all crossing at time ``now``.

        Must be stream-equivalent to ``count`` sequential :meth:`drops`
        calls: same RNG consumption, same verdicts, same state
        afterwards.

        Nothing under ``src/`` calls it: no shipped configuration shares
        one model between hosts, so the fan-out draws ``drops(at)`` per
        host (DESIGN §6, "Fan-out is per-site work").  It stays, on every
        model, because the frozen ``benchmarks/ledger/tracing.py`` looks
        ``BernoulliLoss.drops_batch`` and ``BurstLoss.drops_batch`` up at
        install; once a ``benchmark`` PR drops those two ``ENTRY_POINTS``
        rows (ROADMAP 1a) the implementations go.
        """
        ...


class NoLoss:
    """A perfect link."""

    def drops(self, now: float) -> bool:
        return False

    def drops_batch(self, now: float, count: int) -> list[bool]:
        return [False] * count


def _instance_rng(family: str, counter: list[int]) -> random.Random:
    """A decorrelated default stream for one loss-model instance.

    Every default-constructed instance used to share one named stream
    (``default_rng("loss.bernoulli")``), which made all such links drop
    the *same* packets in lockstep — perfectly correlated loss that no
    real network exhibits.  Numbering the streams keeps defaults
    deterministic (for a fixed construction order) while decorrelating
    instances; pass an explicit ``rng`` for full seed control.
    """
    counter[0] += 1
    return default_rng(f"{family}.{counter[0]}")


class BernoulliLoss:
    """Independent loss with fixed probability ``p``."""

    _instances = [0]

    def __init__(self, p: float, rng: random.Random | None = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self._p = p
        self._rng = rng or _instance_rng("loss.bernoulli", self._instances)

    @property
    def p(self) -> float:
        return self._p

    def drops(self, now: float) -> bool:
        return self._rng.random() < self._p

    def drops_batch(self, now: float, count: int) -> list[bool]:
        # One bound-method lookup serves the whole fan-out; the list comp
        # draws in exactly the order sequential drops() calls would.
        rand, p = self._rng.random, self._p
        return [rand() < p for _ in range(count)]


class BurstLoss:
    """Total loss inside configured time windows, perfect outside.

    This is the §2.1.1 burst congestion model: windows are
    ``(start, end)`` pairs in simulation time.  An optional ``base``
    model applies outside the windows.
    """

    def __init__(self, windows: list[tuple[float, float]], base: LossModel | None = None) -> None:
        for start, end in windows:
            if end < start:
                raise ValueError(f"burst window ends before it starts: ({start}, {end})")
        self._windows = sorted(windows)
        self._base = base or NoLoss()

    @property
    def windows(self) -> list[tuple[float, float]]:
        return list(self._windows)

    @property
    def base(self) -> LossModel:
        return self._base

    def drops(self, now: float) -> bool:
        for start, end in self._windows:
            if start <= now < end:
                return True
            if start > now:
                break
        return self._base.drops(now)

    def drops_batch(self, now: float, count: int) -> list[bool]:
        for start, end in self._windows:
            if start <= now < end:
                # Sequential drops() returns before touching the base
                # model inside a window, so the batch must not advance
                # the base stream either.
                return [True] * count
            if start > now:
                break
        return self._base.drops_batch(now, count)


class GilbertElliottLoss:
    """Two-state Markov loss: a *good* state with light loss and a *bad*
    (congested) state with heavy loss.

    State transitions are evaluated per packet, which for roughly
    regular traffic approximates the continuous-time chain and keeps the
    model deterministic under a seeded RNG.
    """

    _instances = [0]

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.2,
        loss_good: float = 0.0,
        loss_bad: float = 0.9,
        rng: random.Random | None = None,
    ) -> None:
        # (``rng`` is positional-last on purpose: every experiment that
        # cares about reproducibility should pass its own stream.)
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self._p_gb = p_good_to_bad
        self._p_bg = p_bad_to_good
        self._loss_good = loss_good
        self._loss_bad = loss_bad
        self._bad = False
        self._rng = rng or _instance_rng("loss.gilbert-elliott", self._instances)

    @property
    def in_bad_state(self) -> bool:
        return self._bad

    def drops(self, now: float) -> bool:
        if self._bad:
            if self._rng.random() < self._p_bg:
                self._bad = False
        else:
            if self._rng.random() < self._p_gb:
                self._bad = True
        p = self._loss_bad if self._bad else self._loss_good
        return self._rng.random() < p

    def drops_batch(self, now: float, count: int) -> list[bool]:
        # The chain is inherently sequential (each verdict depends on the
        # state the previous packet left behind); batching still hoists
        # the attribute lookups out of the per-packet loop.
        rand = self._rng.random
        p_gb, p_bg = self._p_gb, self._p_bg
        loss_good, loss_bad = self._loss_good, self._loss_bad
        bad = self._bad
        out = []
        append = out.append
        for _ in range(count):
            if bad:
                if rand() < p_bg:
                    bad = False
            else:
                if rand() < p_gb:
                    bad = True
            append(rand() < (loss_bad if bad else loss_good))
        self._bad = bad
        return out


class CompositeLoss:
    """Drops when *any* member model drops (e.g. burst over Bernoulli).

    ``rng``, when given, reseeds the composite deterministically: every
    member that accepts a seeded stream is rebuilt on a sub-stream split
    from it, so one seed pins the whole stack regardless of how the
    members were constructed.
    """

    def __init__(self, *models: LossModel, rng: random.Random | None = None) -> None:
        if rng is not None:
            models = tuple(self._reseed(model, rng, index)
                           for index, model in enumerate(models))
        self._models = models

    @staticmethod
    def _reseed(model: LossModel, rng: random.Random, index: int) -> LossModel:
        sub = random.Random(f"composite.{index}.{rng.random()}")
        if isinstance(model, BernoulliLoss):
            return BernoulliLoss(model.p, rng=sub)
        if isinstance(model, GilbertElliottLoss):
            return GilbertElliottLoss(
                p_good_to_bad=model._p_gb,
                p_bad_to_good=model._p_bg,
                loss_good=model._loss_good,
                loss_bad=model._loss_bad,
                rng=sub,
            )
        return model  # deterministic models (NoLoss, BurstLoss) pass through

    def drops(self, now: float) -> bool:
        # Evaluate all models so stateful members keep advancing.
        return any([model.drops(now) for model in self._models])

    def drops_batch(self, now: float, count: int) -> list[bool]:
        # Per-member batches OR'd column-wise.  Stream-equivalent to the
        # sequential interleaving because members draw from independent
        # RNG instances (guaranteed by construction: defaults are
        # numbered streams, ``rng=`` rebuilds members on split
        # sub-streams), so each member's own draw order is all that
        # determinism requires.
        verdicts = [model.drops_batch(now, count) for model in self._models]
        if not verdicts:
            return [False] * count
        if len(verdicts) == 1:
            return verdicts[0]
        return [any(col) for col in zip(*verdicts)]
