"""CLI smoke tests."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Log-Based Receiver-Reliable Multicast" in out
    assert "h_min=0.25" in out


def test_headline(capsys):
    assert main(["headline"]) == 0
    out = capsys.readouterr().out
    assert "53.2x" in out
    assert "500,000" in out


def test_quickstart_demo(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "delivered to 20/20" in out


def test_metrics_text(capsys):
    assert main(["metrics", "--sites", "2", "--receivers", "2", "--trace", "5"]) == 0
    out = capsys.readouterr().out
    assert "counters (" in out
    assert "histograms (" in out
    assert "receiver.recovery_latency" in out
    assert "sender.data_sent{node=source}" in out
    assert "trace (emitted=" in out


def test_metrics_json(capsys):
    import json

    assert main(["metrics", "--json", "--sites", "2", "--receivers", "2"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"]["sender.data_sent{node=source}"] == 10
    assert snap["histograms"]["receiver.recovery_latency"]["count"] > 0
    assert snap["trace"]["emitted"] > 0


def test_metrics_leaves_observability_off(capsys):
    from repro import obs

    assert main(["metrics", "--sites", "2", "--receivers", "2"]) == 0
    capsys.readouterr()
    assert not obs.registry().enabled


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_parser_lists_all_demos():
    parser = build_parser()
    help_text = parser.format_help()
    for cmd in ("quickstart", "dis", "ticker", "failover", "live", "web", "headline", "metrics", "bench", "chaos"):
        assert cmd in help_text


def test_chaos_quick_writes_json(tmp_path, capsys):
    import json

    assert main([
        "chaos", "--quick", "--seed", "4", "--runs", "1", "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos campaign" in out and "violations=0" in out
    report = json.loads((tmp_path / "CHAOS_seed4.json").read_text())
    assert report["campaign"]["tier"] == "quick"
    assert report["totals"]["violations"] == 0
    assert report["failures"] == []


def test_chaos_sabotage_exits_nonzero(tmp_path, capsys):
    assert main([
        "chaos", "--quick", "--seed", "4", "--runs", "1",
        "--sabotage", "logger-retrans", "--out", str(tmp_path),
    ]) == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out and "--seed 4" in out


@pytest.mark.parametrize("command", ["chaos", "hierarchy-chaos", "failover-sweep"])
def test_engine_flag_is_gone(command, capsys):
    # One engine: there is no second one to select.
    with pytest.raises(SystemExit):
        main([command, "--engine", "fast"])
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_hierarchy_chaos_shares_the_chaos_cli(tmp_path, capsys):
    import json

    assert main(["hierarchy-chaos", "--runs", "1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "hierarchy chaos campaign" in out and "depth=3" in out and "reparents=" in out
    report = json.loads((tmp_path / "HIERARCHY_CHAOS_seed0.json").read_text())
    assert report["totals"]["reparents"] == report["cases"][0]["reparents"]
    with pytest.raises(SystemExit):  # the sabotage demo stays on `chaos` only
        main(["hierarchy-chaos", "--sabotage", "logger-retrans"])


def test_bench_quick_writes_json(tmp_path, capsys):
    import json
    import pathlib

    assert main([
        "bench", "--quick", "--only", "logger_throughput", "--out", str(tmp_path)
    ]) == 0
    out = capsys.readouterr().out
    assert "logger_throughput" in out and "speedup" not in out
    result = json.loads((tmp_path / "BENCH_logger_throughput.json").read_text())
    assert result["tier"] == "quick"
    # One measured leg, under the key the committed baselines gate on,
    # and the same deterministic workload facts as the committed one.
    assert set(result["engines"]) == {"fast"}
    assert "speedup" not in result
    committed = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/results/quick"
    baseline = json.loads((committed / "BENCH_logger_throughput.json").read_text())
    assert result["engines"]["fast"]["checks"] == baseline["engines"]["fast"]["checks"]


def test_bench_rejects_unknown_scenario(tmp_path, capsys):
    assert main(["bench", "--quick", "--only", "nonsense", "--out", str(tmp_path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err
