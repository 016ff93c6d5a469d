"""The perf gate and profiler plumbing behind ``repro bench``.

``check_results`` is the CI regression gate: it compares fresh
throughput against committed ``BENCH_*.json`` baselines and
must catch a real slowdown (the synthetic 20% case below) while staying
quiet inside the tolerance band.  ``profile_scenario`` must leave both
artifacts a human and a flamegraph tool can read.
"""

from __future__ import annotations

import json

import pytest

from repro.benchrunner import (
    build_bench_parser,
    check_results,
    default_harness_path,
    profile_scenario,
    run_bench,
)


def _result(name: str, eps: float, tier: str = "quick") -> dict:
    return {
        "scenario": name,
        "tier": tier,
        "engines": {"fast": {"events_per_sec": eps, "wall_s": 1.0}},
    }


def _write_baseline(dirpath, result: dict) -> None:
    (dirpath / f"BENCH_{result['scenario']}.json").write_text(json.dumps(result))


class TestCheckResults:
    def test_synthetic_20pct_slowdown_fails_the_gate(self, tmp_path):
        _write_baseline(tmp_path, _result("fig7", 100_000.0))
        failures = check_results([_result("fig7", 80_000.0)], tmp_path, tolerance=0.15)
        assert len(failures) == 1
        assert "regressed 20.0%" in failures[0]
        # The message tells the developer how to refresh intentionally.
        assert "refresh the baseline" in failures[0]

    def test_within_tolerance_passes(self, tmp_path):
        _write_baseline(tmp_path, _result("fig7", 100_000.0))
        assert check_results([_result("fig7", 90_000.0)], tmp_path, tolerance=0.15) == []

    def test_improvement_passes(self, tmp_path):
        _write_baseline(tmp_path, _result("fig7", 100_000.0))
        assert check_results([_result("fig7", 400_000.0)], tmp_path) == []

    def test_exactly_at_floor_passes(self, tmp_path):
        _write_baseline(tmp_path, _result("fig7", 100_000.0))
        assert check_results([_result("fig7", 85_000.0)], tmp_path, tolerance=0.15) == []

    def test_missing_baseline_is_a_failure_with_instructions(self, tmp_path):
        failures = check_results([_result("fig7", 1.0)], tmp_path)
        assert len(failures) == 1
        assert "no baseline" in failures[0]

    def test_tier_mismatch_refuses_to_compare(self, tmp_path):
        _write_baseline(tmp_path, _result("fig7", 100_000.0, tier="full"))
        failures = check_results([_result("fig7", 100_000.0, tier="quick")], tmp_path)
        assert len(failures) == 1
        assert "tier" in failures[0]

    def test_multiple_scenarios_report_independently(self, tmp_path):
        _write_baseline(tmp_path, _result("a", 100.0))
        _write_baseline(tmp_path, _result("b", 100.0))
        failures = check_results(
            [_result("a", 50.0), _result("b", 99.0)], tmp_path, tolerance=0.15
        )
        assert len(failures) == 1
        assert failures[0].startswith("a:")

    def test_stale_baseline_for_retired_scenario_fails_loudly(self, tmp_path):
        # A baseline whose scenario no longer runs must not silently
        # pass the gate forever — that is how retired-but-regressed
        # scenarios hide.
        _write_baseline(tmp_path, _result("fig7", 100_000.0))
        _write_baseline(tmp_path, _result("retired_scenario", 100_000.0))
        failures = check_results(
            [_result("fig7", 100_000.0)], tmp_path, expect_complete=True
        )
        assert len(failures) == 1
        assert "retired_scenario" in failures[0]
        assert "stale baseline" in failures[0]

    def test_partial_run_skips_the_stale_baseline_check(self, tmp_path):
        # `--only` runs a subset on purpose; unexercised baselines are
        # expected then, not stale.
        _write_baseline(tmp_path, _result("fig7", 100_000.0))
        _write_baseline(tmp_path, _result("other", 100_000.0))
        assert check_results(
            [_result("fig7", 100_000.0)], tmp_path, expect_complete=False
        ) == []


class TestBenchParser:
    def test_check_and_profile_flags_parse(self):
        args = build_bench_parser().parse_args(
            ["--full", "--check", "benchmarks/results", "--check-tolerance", "0.2"]
        )
        assert args.tier == "full"
        assert args.check == "benchmarks/results"
        assert args.check_tolerance == pytest.approx(0.2)
        args = build_bench_parser().parse_args(["--profile", "--only", "fig7_nack_reduction"])
        assert args.profile is True
        assert args.check is None

    def test_aio_tier_flag_parses_and_excludes_other_tiers(self):
        args = build_bench_parser().parse_args(["--aio"])
        assert args.tier == "aio"
        with pytest.raises(SystemExit):
            build_bench_parser().parse_args(["--aio", "--full"])

    def test_engine_flag_is_gone(self):
        # One measured leg: there is no second engine to select.
        with pytest.raises(SystemExit):
            build_bench_parser().parse_args(["--engine", "reference"])


# A minimal stand-in for benchmarks/harness.py: records which scenarios
# ran so the tier-selection tests below stay fast and deterministic
# (they must not open sockets or run the real transport tier).
_FAKE_HARNESS = """
import json, pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SCENARIOS = {{"fig7": None}}
AIO_SCENARIOS = {{"aio_cluster_throughput": None, "aio_transport_blast": None}}
_CALLS = pathlib.Path(__file__).parent / "calls.jsonl"


def aio_available():
    return {available}


def run_scenario(name, tier="quick"):
    with _CALLS.open("a") as fh:
        fh.write(json.dumps([name, tier]) + "\\n")
    return {{"events_per_sec": 100.0, "wall_s": 1.0}}


def assemble_result(name, tier, run):
    return {{"scenario": name, "tier": tier, "engines": {{"fast": run}}}}


def write_result(result, out_dir):
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("BENCH_" + result["scenario"] + ".json")
    path.write_text(json.dumps(result))
    return path
"""


def _write_fake_harness(tmp_path, available: bool):
    path = tmp_path / "harness.py"
    path.write_text(_FAKE_HARNESS.format(available=available))
    return path


def _calls(tmp_path) -> list:
    calls_path = tmp_path / "calls.jsonl"
    if not calls_path.exists():
        return []
    return [json.loads(line) for line in calls_path.read_text().splitlines()]


class TestAioTier:
    def test_aio_tier_runs_aio_scenarios_only(self, tmp_path):
        harness = _write_fake_harness(tmp_path, available=True)
        args = build_bench_parser().parse_args(
            ["--aio", "--out", str(tmp_path / "out"), "--harness", str(harness)]
        )
        assert run_bench(args) == 0
        # Each scenario measured exactly once.
        ran = sorted(name for name, _ in _calls(tmp_path))
        assert ran == ["aio_cluster_throughput", "aio_transport_blast"]
        for name in ran:
            assert (tmp_path / "out" / f"BENCH_{name}.json").exists()

    def test_skip_artifact_written_when_sockets_unavailable(self, tmp_path):
        harness = _write_fake_harness(tmp_path, available=False)
        args = build_bench_parser().parse_args(
            ["--aio", "--out", str(tmp_path / "out"), "--harness", str(harness)]
        )
        assert run_bench(args) == 0
        # No scenario ran; the skip is an explicit artifact, not silence.
        assert _calls(tmp_path) == []
        skip = json.loads((tmp_path / "out" / "BENCH_aio_skipped.json").read_text())
        assert skip["status"] == "skipped"
        assert skip["tier"] == "aio"
        assert "reason" in skip

    def test_skip_bypasses_the_check_gate(self, tmp_path):
        # Where the tier cannot run, --check must not fail on missing
        # results — the skip artifact is the record CI uploads instead.
        harness = _write_fake_harness(tmp_path, available=False)
        args = build_bench_parser().parse_args(
            ["--aio", "--out", str(tmp_path / "out"),
             "--check", str(tmp_path / "nonexistent-baselines"),
             "--harness", str(harness)]
        )
        assert run_bench(args) == 0

    def test_real_harness_exports_the_aio_tier(self):
        import benchmarks.harness as real

        assert set(real.AIO_SCENARIOS) == {
            "aio_cluster_throughput", "aio_transport_blast"
        }
        assert isinstance(real.aio_available(), bool)
        assert set(real.AIO_SCENARIOS) <= set(real.ALL_SCENARIOS)


def test_fanout_scenario_checks_the_last_packet_it_sent():
    """It asked for a sequence one past the train, so "0 receivers" was
    the committed expectation and a fan-out that lost the last packet
    everywhere would have matched it."""
    import benchmarks.harness as real

    checks = real.scenario_multicast_fanout("quick")["checks"]
    params = real._fanout_params("quick")
    assert checks["all_received_last"] == params["n_sites"] * params["receivers_per_site"]
    baseline = json.loads(
        (default_harness_path().parent / "results" / "quick" / "BENCH_multicast_fanout.json").read_text()
    )
    assert checks == baseline["engines"]["fast"]["checks"]


@pytest.mark.slow
def test_profile_scenario_writes_readable_artifacts(tmp_path):
    run, pstats_path, txt_path = profile_scenario(
        str(default_harness_path()), "logger_throughput", "quick", tmp_path
    )
    assert run["events_per_sec"] > 0
    assert pstats_path.exists() and pstats_path.stat().st_size > 0
    # The raw dump loads back into pstats (what snakeviz/flameprof read).
    import pstats

    stats = pstats.Stats(str(pstats_path))
    assert stats.total_calls > 0
    text = txt_path.read_text()
    assert "top 30 by cumulative time" in text
    assert "top 30 by internal time" in text
    assert "logger_throughput" in text
