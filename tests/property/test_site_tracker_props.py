"""``SiteRequestTracker`` against a set-per-window model.

The tracker holds a window's first requester bare and makes a set only
for a second distinct one; the model below keeps a set from the first
request, the way the tracker used to.  Random ``(seq, requester, dt,
self_lost)`` streams, with sweeps mixed in, must get the same ``record``
verdicts and the same ``requesters()`` from both.  The pinned examples
kill the two ways the bare-requester form goes wrong: a repeated lone
requester counted twice, and a fired window that still collects.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import LoggerConfig
from repro.core.retransmit import SiteRequestTracker

WINDOW = 1.0


class SetPerWindow:
    """seq -> [window start, set of requesters, fired?]; never swept."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.windows: dict[int, list] = {}

    def record(self, seq, requester, now: float, self_lost: bool) -> bool:
        window = self.windows.get(seq)
        if window is not None and now - window[0] <= WINDOW:
            if window[2]:
                return False
            window[1].add(requester)
        else:
            window = self.windows[seq] = [now, {requester}, False]
        if len(window[1]) < (1 if self_lost else self.threshold):
            return False
        window[2] = True
        return True


# Strings as in the simulator, (host, port) tuples as on real UDP.
_REQUESTERS = st.sampled_from(["rx1", "rx2", "rx3", ("10.0.0.1", 5000), ("10.0.0.2", 5000)])
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.integers(min_value=1, max_value=4),
            _REQUESTERS,
            st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 1.5]),
            st.booleans(),
        ),
        st.tuples(st.just("sweep"), st.sampled_from([0.0, 0.5, 1.5])),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(threshold=st.integers(min_value=1, max_value=4), steps=_STEPS)
# A repeated lone requester is one requester: two asks do not fire at 2.
@example(threshold=2, steps=[("record", 1, "rx1", 0.0, False), ("record", 1, "rx1", 0.1, False)])
# A fired window stops collecting: later asks in it neither fire nor count.
@example(threshold=1, steps=[("record", 1, "rx1", 0.0, False), ("record", 1, "rx2", 0.1, False)])
def test_tracker_matches_a_set_per_window(threshold, steps):
    tracker = SiteRequestTracker(LoggerConfig(remulticast_threshold=threshold), window=WINDOW)
    model = SetPerWindow(threshold)
    now = 0.0
    for step in steps:
        if step[0] == "sweep":
            now += step[1]
            tracker.sweep(now)
        else:
            _, seq, requester, dt, self_lost = step
            now += dt
            assert tracker.record(seq, requester, now, self_lost) == model.record(
                seq, requester, now, self_lost
            ), step
        for seq, (start, requesters, _) in model.windows.items():
            seen = tracker.requesters(seq)
            if now - start <= WINDOW:
                assert seen == requesters, (seq, step)
            else:  # aged out: swept, or still held until the next sweep
                assert seen in (frozenset(), requesters), (seq, step)
