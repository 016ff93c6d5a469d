"""Property tests: no sampled fault schedule ever breaks the oracle.

The chaos campaign's sampler promises *recoverable by construction*:
every schedule it can emit describes a world LBRM is supposed to
survive.  Hypothesis explores that promise two ways —

* seed-driven: any sampler seed yields a schedule that runs clean on a
  2-site deployment, twice in one process with bit-identical end states
  (each run builds its own engine; what could differ is state leaking
  through module-level memos — codec caches, the shared ``Deliver`` —
  which CI's two-process same-seed diff cannot see);
* structure-driven: hand-built schedules of gentle receiver-side faults
  (crash/restart blips, pauses, short partitions, corruption windows)
  never violate the invariants either, independent of the sampler.

Any shrunk counterexample here is a protocol bug with a ready-made
reproducer schedule.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import Fault, FaultSchedule
from repro.chaos.campaign import TIERS, run_case, sample_schedule

_SHAPE = TIERS["quick"]  # 2 sites x 2 receivers, 1 replica, 10 packets

_SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _assert_clean(schedule: FaultSchedule, case_seed: int):
    outcome = run_case(_SHAPE, schedule, case_seed)
    assert outcome.violations == [], (
        schedule.to_dict(), [v.to_dict() for v in outcome.violations],
    )
    return outcome


@_SLOW
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_schedules_never_violate_under_either_engine(seed: int):
    schedule = sample_schedule(random.Random(f"chaos-props:{seed}"), _SHAPE)
    first = _assert_clean(schedule, case_seed=seed)
    assert _assert_clean(schedule, case_seed=seed).digest == first.digest, schedule.to_dict()


# Gentle hand-built faults on the 2-site world: every crash is paired
# with a restart, every pause with a resume, partitions stay short, and
# corruption targets a receiver — mirroring the sampler's recoverability
# rules without reusing its code.
_RECEIVERS = [f"site{i}-rx{j}" for i in range(1, 3) for j in range(2)]


def _times(n=1):
    return st.floats(min_value=1.0, max_value=6.0, allow_nan=False).map(lambda t: round(t, 3))


_BLIP = st.tuples(
    st.sampled_from(_RECEIVERS),
    _times(),
    st.floats(min_value=0.3, max_value=1.5, allow_nan=False),
    st.sampled_from(["crash", "pause"]),
).map(
    lambda t: [
        Fault(t[3], t[1], t[0]),
        Fault({"crash": "restart", "pause": "resume"}[t[3]], round(t[1] + t[2], 3), t[0]),
    ]
)

_PARTITION = st.tuples(
    st.sampled_from(["site1", "site2"]),
    _times(),
    st.floats(min_value=0.3, max_value=1.5, allow_nan=False),
).map(lambda t: [Fault("partition", t[1], t[0], duration=round(t[2], 3))])

_CORRUPT = st.tuples(
    st.sampled_from(_RECEIVERS),
    _times(),
    st.floats(min_value=0.3, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.3, allow_nan=False),
).map(lambda t: [Fault("corrupt", t[1], t[0], duration=round(t[2], 3), amount=round(t[3], 3))])

_SCHEDULES = st.lists(
    st.one_of(_BLIP, _PARTITION, _CORRUPT), min_size=0, max_size=3
).flatmap(
    lambda groups: st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda s: FaultSchedule(
            faults=tuple(f for group in groups for f in group), seed=s
        )
    )
)


@_SLOW
@given(schedule=_SCHEDULES, case_seed=st.integers(min_value=0, max_value=2**16))
def test_structured_schedules_never_violate(schedule: FaultSchedule, case_seed: int):
    _assert_clean(schedule, case_seed)


@settings(max_examples=20, deadline=None)
@given(
    faults=st.lists(
        st.builds(
            Fault,
            kind=st.sampled_from(["crash", "partition", "corrupt", "skew"]),
            at=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            target=st.just("site1"),
            duration=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            amount=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_schedule_roundtrips_and_stays_sorted(faults, seed):
    """Schedules are values: dict round-trips preserve them, faults stay
    time-sorted, and ``without`` only ever shrinks."""
    schedule = FaultSchedule(faults=tuple(faults), seed=seed)
    assert FaultSchedule.from_dict(schedule.to_dict()) == schedule
    times = [f.at for f in schedule.faults]
    assert times == sorted(times)
    for index in range(len(schedule)):
        assert len(schedule.without(index)) == len(schedule) - 1
