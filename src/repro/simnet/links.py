"""Simulated network links: latency, bandwidth, queueing, and loss.

A :class:`Link` is a unidirectional pipe.  Transit of a packet costs
serialization time (``size / bandwidth``) plus propagation ``latency``;
packets queue FIFO while the link is busy and are tail-dropped beyond
``queue_limit`` — which is exactly how the paper's congested T1 tail
circuits lose whole-site traffic (Figure 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.simnet.loss import LossModel, NoLoss

__all__ = ["LinkStats", "Link"]


@dataclass
class LinkStats:
    """Per-link accounting used by the benchmark harness."""

    packets: int = 0
    bytes: int = 0
    drops_loss: int = 0
    drops_queue: int = 0

    def reset(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.drops_loss = 0
        self.drops_queue = 0


class Link:
    """One unidirectional link.

    Parameters
    ----------
    latency:
        Propagation delay in seconds.
    bandwidth:
        Bits per second; 0 disables serialization delay and queueing
        (an idealized LAN).
    queue_limit:
        Maximum queued packets while the link is busy; 0 = unbounded.
    loss:
        Stochastic loss model applied to every packet that got past the
        queue.
    """

    def __init__(
        self,
        name: str,
        latency: float = 0.001,
        bandwidth: float = 0.0,
        queue_limit: int = 0,
        loss: LossModel | None = None,
        jitter: float = 0.0,
        rng: "random.Random | None" = None,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        if bandwidth < 0:
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be non-negative, got {queue_limit}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.queue_limit = queue_limit
        self.loss = loss or NoLoss()
        # Uniform extra delay in [0, jitter] per packet.  Jitter larger
        # than the packet spacing reorders deliveries — the condition the
        # receiver's nack_delay (Appendix A's "short retransmission
        # request timer") exists for.
        self.jitter = jitter
        self._rng = rng or random.Random(0)
        self.stats = LinkStats()
        self._busy_until = 0.0

    def transit(self, size: int, now: float) -> float | None:
        """Attempt to carry ``size`` bytes entering the link at ``now``.

        Returns the absolute time the packet exits the far end, or None
        when it was dropped (queue overflow or stochastic loss).  State
        (queue occupancy, loss-model state) advances either way.
        """
        if self.bandwidth:
            tx_time = (size * 8.0) / self.bandwidth
            start = max(now, self._busy_until)
            if self.queue_limit and tx_time > 0:
                # Packets ahead of us, minus the one in service, are queued.
                queued = (start - now) / tx_time - 1.0
                if queued >= self.queue_limit:
                    self.stats.drops_queue += 1
                    return None
        else:
            # Infinite capacity: no serialization, no FIFO coupling
            # between packets (deliveries may reorder under jitter).
            tx_time = 0.0
            start = now
        if self.loss.drops(now):
            # Loss consumes link time too (the bits were sent, then died).
            if self.bandwidth:
                self._busy_until = start + tx_time
            self.stats.drops_loss += 1
            return None
        if self.bandwidth:
            self._busy_until = start + tx_time
        self.stats.packets += 1
        self.stats.bytes += size
        extra = self._rng.uniform(0.0, self.jitter) if self.jitter else 0.0
        return start + tx_time + self.latency + extra

    def __repr__(self) -> str:
        return (
            f"Link({self.name!r}, latency={self.latency}, "
            f"bandwidth={self.bandwidth}, queue_limit={self.queue_limit})"
        )
