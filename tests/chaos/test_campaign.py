"""Campaign-level guarantees: determinism, sampler discipline, detection."""

from __future__ import annotations

import json
import random

import pytest

from repro.chaos.campaign import (
    TIERS,
    minimize_schedule,
    run_campaign,
    run_case,
    sample_schedule,
)
from repro.chaos.schedule import PACKET_KINDS


def test_same_seed_campaigns_are_byte_identical():
    """The regression the loss-RNG audit protects: a reproducer seed must
    reproduce, byte for byte — violation reports included."""
    kw = dict(tier="quick", runs=2)
    first = json.dumps(run_campaign(7, **kw), sort_keys=True, indent=2)
    second = json.dumps(run_campaign(7, **kw), sort_keys=True, indent=2)
    assert first == second


def test_same_seed_sabotaged_campaigns_report_identically():
    kw = dict(tier="quick", runs=1, sabotage="logger-retrans")
    first = json.dumps(run_campaign(3, **kw), sort_keys=True, indent=2)
    second = json.dumps(run_campaign(3, **kw), sort_keys=True, indent=2)
    assert first == second


def test_sabotage_is_caught_with_reproducer():
    report = run_campaign(4, tier="quick", sabotage="logger-retrans")
    assert report["totals"]["violations"] > 0
    assert report["failures"]
    for failure in report["failures"]:
        assert "--seed 4" in failure["reproducer"]
        assert failure["minimized_schedule"]["faults"]


def test_minimized_schedule_still_fails_and_is_no_larger():
    shape = TIERS["quick"]
    index = 0
    schedule = sample_schedule(random.Random(f"chaos-campaign:4:{index}"), shape)
    case_seed = run_campaign(4, tier="quick", runs=1)["cases"][0]["case_seed"]
    minimized = minimize_schedule(shape, schedule, case_seed, "logger-retrans")
    assert len(minimized) <= len(schedule)
    outcome = run_case(shape, minimized, case_seed, "logger-retrans")
    assert outcome.violations


def test_unknown_sabotage_rejected():
    with pytest.raises(ValueError, match="unknown sabotage"):
        run_campaign(0, tier="quick", runs=1, sabotage="nope")


class TestSamplerDiscipline:
    """Schedules must be recoverable by construction."""

    def _schedules(self, shape, n=200):
        return [
            sample_schedule(random.Random(f"discipline:{i}"), shape) for i in range(n)
        ]

    def test_source_is_never_touched(self):
        for schedule in self._schedules(TIERS["full"]):
            assert all(f.target != "source" for f in schedule.faults)

    def test_corrupt_and_reorder_target_receivers_only(self):
        for schedule in self._schedules(TIERS["full"]):
            for fault in schedule.faults:
                if fault.kind in ("corrupt", "reorder"):
                    assert "-rx" in fault.target

    def test_every_crash_except_failover_has_a_restart(self):
        for schedule in self._schedules(TIERS["full"]):
            crashes = [f for f in schedule.faults if f.kind == "crash"]
            restarts = {f.target for f in schedule.faults if f.kind == "restart"}
            for crash in crashes:
                if crash.target == "primary":
                    continue  # the failover scenario: permanent by design
                assert crash.target in restarts

    def test_at_most_one_primary_side_fault(self):
        for schedule in self._schedules(TIERS["full"]):
            primary_faults = [
                f for f in schedule.faults
                if f.target == "primary" and f.kind in ("crash", "pause")
            ]
            assert len(primary_faults) <= 1

    def test_partitions_never_cut_the_source_site(self):
        for schedule in self._schedules(TIERS["full"]):
            assert all(
                f.target != "site0" for f in schedule.faults if f.kind == "partition"
            )

    def test_packet_windows_are_bounded(self):
        for schedule in self._schedules(TIERS["full"]):
            for fault in schedule.faults:
                if fault.kind in PACKET_KINDS:
                    assert 0 < fault.duration <= 2.0
