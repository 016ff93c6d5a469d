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

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent, deterministically-seeded RNGs."""

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
