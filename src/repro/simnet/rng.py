"""Seeded random-number streams for reproducible simulations.

Every stochastic element of a simulation (per-link loss, per-logger
volunteer coins, workload generators) draws from its own named stream,
so adding a new consumer never perturbs the draws of existing ones —
the standard trick for variance reduction and regression-stable
experiments.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["LazyStream", "RngStreams"]


class RngStreams:
    """A family of independent, deterministically-seeded RNGs, each made
    on first use (a 2.5 KB Mersenne Twister).  Seeds come from names
    alone, so when a stream is made never moves its draws: a consumer
    that may never draw holds a :class:`LazyStream`."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The RNG dedicated to ``name`` (created on first use)."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng


class LazyStream:
    """``streams.stream(name)``, made at its first draw (the same object,
    so every draw is the one the stream itself would give)."""

    __slots__ = ("_streams", "_name")

    def __init__(self, streams: RngStreams, name: str) -> None:
        self._streams, self._name = streams, name

    def random(self) -> float:
        return self._streams.stream(self._name).random()
