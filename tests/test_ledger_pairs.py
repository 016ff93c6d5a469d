"""tools/ledger_pairs.py: the verdict rule (choosing-metrics §8) on made-up runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ledger_pairs.py"
_spec = importlib.util.spec_from_file_location("ledger_pairs", _PATH)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)

PARENT = [2.00, 2.04, 1.98, 2.02, 2.06, 2.01, 1.99, 2.03, 2.05, 2.00]


def _shift(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize(
    "change, bound, expected",
    [
        (_shift(PARENT, 0.6), 0.25, ("gain", 10)),
        # Better in every pair, but by less than the parent's own quartile spread.
        (_shift(PARENT, 0.995), 0.25, ("ok", 10)),
        (_shift(PARENT, 1.10), 0.25, ("ok", 0)),
        (_shift(PARENT, 1.10), 0.01, ("worse", 0)),
        # Beyond the bound in the median, yet the two sides' runs overlap.
        ([2.00, 2.50, 2.50, 2.50, 2.50, 2.50, 2.50, 2.50, 2.50, 2.50], 0.10, ("unresolved", 0)),
        # Inside the bound in the median, but the parent's runs spread wider than it.
        (PARENT, 0.02, ("unresolved", 0)),
    ],
)
def test_verdict(change, bound, expected):
    assert ledger_pairs.verdict(PARENT, change, True, bound) == expected


def test_a_win_needs_nine_tenths_of_the_pairs_and_ties_count_for_neither():
    change = _shift(PARENT, 0.6)
    change[0], change[1] = PARENT[0], PARENT[1]  # two ties: 8 wins of 10
    assert ledger_pairs.verdict(PARENT, change, True, 0.25) == ("ok", 8)
    change[1] = PARENT[1] * 0.6  # one tie: 9 of 10
    assert ledger_pairs.verdict(PARENT, change, True, 0.25) == ("gain", 9)


def test_higher_is_better_metrics_are_mirrored():
    assert ledger_pairs.verdict(PARENT, _shift(PARENT, 1.5), False, 0.25) == ("gain", 10)
    assert ledger_pairs.verdict(PARENT, _shift(PARENT, 0.5), False, 0.25) == ("worse", 0)


# -- the list form: --workload all | W,W ------------------------------------------


def test_all_means_every_declared_workload_and_a_comma_list_is_taken_as_given():
    bench = {"workloads": [{"name": "a", "why": ""}, {"name": "b", "why": ""}]}
    assert ledger_pairs.workload_names("all", bench) == ["a", "b"]
    assert ledger_pairs.workload_names("b", bench) == ["b"]
    # Ledger-only workloads (not offered to the driver) can still be named.
    assert ledger_pairs.workload_names("b,agg_sharded,", bench) == ["b", "agg_sharded"]


def _fake_ledger(monkeypatch, slow=(), sims_differ=(), traced=None):
    """Stub the three functions that touch git or run the benchmark: the
    change costs 3x the parent's time on ``slow`` workloads; ``traced``
    maps a side to the ``metrics`` of its ``--trace 1`` result line."""
    ran = []

    def run_once(tree, command, args):
        workload = args[args.index("--workload") + 1]
        if args[args.index("--trace") + 1] == "1":
            return {"correct": True, "attempted": 10, "failed": 0, "metrics": traced[tree.name]}
        ran.append((tree.name, workload))
        cost = 3.0 if tree.name == "change" and workload in slow else 1.0
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m: {"value": cost} for m in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}}

    def sim_block(tree, command, workload, seed, out):
        differs = tree.name == "change" and workload in sims_differ
        return {"events": 2 if differs else 1, "served": 7, "digest": "ab" if differs else "aa"}

    monkeypatch.setattr(ledger_pairs, "unpack", lambda ref, parent, change: None)
    monkeypatch.setattr(ledger_pairs, "run_once", run_once)
    monkeypatch.setattr(ledger_pairs, "sim_block", sim_block)
    return ran


def test_every_listed_workload_runs_and_gets_its_own_table(monkeypatch, capsys):
    ran = _fake_ledger(monkeypatch)
    assert ledger_pairs.main(["HEAD", "--workload", "exact_lossy,tree_outage", "--pairs", "2"]) == 0
    # Alternating order inside each workload, one workload after the other.
    assert ran == [
        ("parent", "exact_lossy"), ("change", "exact_lossy"),
        ("change", "exact_lossy"), ("parent", "exact_lossy"),
        ("parent", "tree_outage"), ("change", "tree_outage"),
        ("change", "tree_outage"), ("parent", "tree_outage"),
    ]
    out = capsys.readouterr().out
    assert out.count("sim blocks equal") == 2
    assert "\nexact_lossy, seed 1995, 2 pairs" in out and "\ntree_outage, seed 1995, 2 pairs" in out


def test_default_is_all_and_one_bad_workload_fails_the_run(monkeypatch, capsys):
    ran = _fake_ledger(monkeypatch, slow=("exact_lossy",), sims_differ=("tree_outage",))
    assert ledger_pairs.main(["HEAD", "--pairs", "2"]) == 1
    declared = ["exact_fanout", "exact_lossy", "tree_outage", "logger_service"]  # BENCHMARK.json
    assert sorted({w for _side, w in ran}, key=declared.index) == declared
    tables = capsys.readouterr().out.split("pairs of")[1:]
    assert ["worse" in t for t in tables] == [False, True, False, False]
    assert ["sim blocks DIFFER" in t for t in tables] == [False, False, True, False]


def test_unequal_sim_blocks_print_only_the_keys_that_differ(monkeypatch, capsys):
    _fake_ledger(monkeypatch, sims_differ=("logger_service",))
    assert ledger_pairs.main(["HEAD", "--workload", "logger_service", "--pairs", "2"]) == 1
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("sim blocks")]
    assert line == 'sim blocks DIFFER (key: parent -> change): digest: "aa" -> "ab"; events: 1 -> 2'
    assert ledger_pairs.sim_diff({"a": 1, "gone": 0}, {"a": 1, "new": 2}) == [
        'gone: 0 -> "absent"', 'new: "absent" -> 2',
    ]


# -- --layers: where the saving appears -------------------------------------------


def _traced_line(multicast_s, draw_s, draw_calls):
    """The per-layer ``metrics`` of a traced result line, cut to what matters."""
    return {
        "simnet.engine.run_self_s": {"value": 1.0, "unit": "s"},
        "simnet.topology.multicast_self_s": {"value": multicast_s, "unit": "s"},
        "simnet.loss.draw_self_s": {"value": draw_s, "unit": "s"},
        "trace.unattributed_s": {"value": 0.2, "unit": "s"},
        "simnet.loss.draw_calls": {"value": draw_calls, "unit": "count"},
        "simnet.loss.drop_ratio": {"value": 0.03 * multicast_s, "unit": "ratio"},  # not a count
    }


def test_layers_names_the_self_times_that_moved_and_fails_on_a_count_that_did(monkeypatch, capsys):
    traced = {"parent": _traced_line(0.8, 0.5, 448_624), "change": _traced_line(0.45, 0.3, 448_624)}
    ran = _fake_ledger(monkeypatch, traced=traced)
    assert ledger_pairs.main(["HEAD", "--workload", "exact_lossy", "--pairs", "2", "--layers"]) == 0
    assert len(ran) == 4  # the traced runs are beside the pairs, not among them
    out = capsys.readouterr().out
    # 10 % of the parent's 2.5 traced seconds: 0.35 moved, 0.2 did not.
    assert ("(2.5 -> 1.95 s; self times that moved by more than 10% of the parent's): "
            "simnet.topology.multicast_self_s: 0.8 -> 0.45\n") in out
    assert "layer counts equal" in out

    traced["change"] = _traced_line(0.8, 0.5, 448_000)
    assert ledger_pairs.main(["HEAD", "--workload", "exact_lossy", "--pairs", "2", "--layers"]) == 1
    out = capsys.readouterr().out
    assert "of the parent's): none\n" in out
    assert "layer counts DIFFER (name: parent -> change): simnet.loss.draw_calls: 448624 -> 448000\n" in out
