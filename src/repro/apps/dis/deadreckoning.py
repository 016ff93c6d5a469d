"""Dead reckoning for dynamic DIS entities (§1, reference [17]).

"Dead reckoning at each receiver dramatically reduces the bandwidth
demands of dynamic entities" — each receiver extrapolates an entity's
last broadcast kinematic state, and the source transmits a fresh state
only when its true position diverges from what the receivers are
extrapolating by more than an error threshold.

This module supplies that mechanism for the DIS workload: a
:class:`KinematicState` wire format, the source-side
:class:`DeadReckoningSource` emission policy, and the receiver-side
:class:`DeadReckoningMirror` extrapolator whose display error is bounded
by the source's threshold (plus network delay × speed).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

__all__ = ["KinematicState", "DeadReckoningSource", "DeadReckoningMirror"]

_KINEMATIC = struct.Struct("!IdddddQ")


@dataclass(frozen=True, slots=True)
class KinematicState:
    """A dynamic entity's broadcast state: pose, velocity, timestamp."""

    entity_id: int
    x: float
    y: float
    vx: float
    vy: float
    timestamp: float
    update_id: int = 0

    def extrapolate(self, now: float) -> tuple[float, float]:
        """First-order dead-reckoned position at time ``now``."""
        dt = now - self.timestamp
        return self.x + self.vx * dt, self.y + self.vy * dt

    def encode(self) -> bytes:
        return _KINEMATIC.pack(
            self.entity_id, self.x, self.y, self.vx, self.vy, self.timestamp, self.update_id
        )

    @classmethod
    def decode(cls, data: bytes) -> "KinematicState":
        entity_id, x, y, vx, vy, timestamp, update_id = _KINEMATIC.unpack(
            data[: _KINEMATIC.size]
        )
        return cls(entity_id=entity_id, x=x, y=y, vx=vx, vy=vy,
                   timestamp=timestamp, update_id=update_id)


class DeadReckoningSource:
    """Source-side emission policy for one dynamic entity.

    Call :meth:`move` with the entity's true state every tick; it
    returns the :class:`KinematicState` to broadcast when the receivers'
    extrapolation error would exceed ``threshold``, else ``None``.
    ``max_silence`` bounds the time between updates regardless (DIS
    keeps a periodic floor so late joiners converge).
    """

    def __init__(self, entity_id: int, threshold: float = 1.0, max_silence: float = 5.0) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if max_silence <= 0:
            raise ValueError(f"max_silence must be positive, got {max_silence}")
        self._entity_id = entity_id
        self._threshold = threshold
        self._max_silence = max_silence
        self._last_broadcast: KinematicState | None = None
        self._update_id = 0
        self.stats = {"moves": 0, "updates_emitted": 0}

    def move(self, x: float, y: float, vx: float, vy: float, now: float) -> KinematicState | None:
        """Report the entity's true state; returns an update to send or None."""
        self.stats["moves"] += 1
        last = self._last_broadcast
        if last is not None:
            ex, ey = last.extrapolate(now)
            error = math.hypot(x - ex, y - ey)
            if error <= self._threshold and now - last.timestamp < self._max_silence:
                return None
        self._update_id += 1
        state = KinematicState(
            entity_id=self._entity_id, x=x, y=y, vx=vx, vy=vy,
            timestamp=now, update_id=self._update_id,
        )
        self._last_broadcast = state
        self.stats["updates_emitted"] += 1
        return state


class DeadReckoningMirror:
    """Receiver-side extrapolated view of many dynamic entities.

    Stale updates (recovered after being superseded) are dropped by
    ``update_id`` — the same receiver-reliable pattern as the terrain
    database.
    """

    def __init__(self) -> None:
        self._states: dict[int, KinematicState] = {}
        self.stats = {"applied": 0, "stale_dropped": 0}

    def apply(self, payload: bytes) -> KinematicState | None:
        state = KinematicState.decode(payload)
        current = self._states.get(state.entity_id)
        if current is not None and current.update_id >= state.update_id:
            self.stats["stale_dropped"] += 1
            return None
        self._states[state.entity_id] = state
        self.stats["applied"] += 1
        return state

    def position(self, entity_id: int, now: float) -> tuple[float, float] | None:
        """The dead-reckoned position displayed for ``entity_id``."""
        state = self._states.get(entity_id)
        if state is None:
            return None
        return state.extrapolate(now)
