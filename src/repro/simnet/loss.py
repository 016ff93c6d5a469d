"""Packet-loss models for simulated links and hosts.

The paper's analysis (§2.1.1) uses a simple *burst* model — "the network
experiences a burst congestion period of duration t_burst during which a
given host receives no packets" — provided here as
:class:`BurstLoss` with deterministic windows.  For steadier background
loss, :class:`BernoulliLoss` drops i.i.d.; a burst model's ``base``
stacks the two.  A stochastic model draws from the stream its caller
passes (``RngStreams.stream(name)``), never from one of its own making.
"""

from __future__ import annotations

import random
from typing import Protocol

__all__ = [
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "BurstLoss",
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


class BernoulliLoss:
    """Independent loss with fixed probability ``p``."""

    def __init__(self, p: float, rng: random.Random) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self._p = p
        self._rng = rng

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

