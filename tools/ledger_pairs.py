#!/usr/bin/env python3
"""Alternating parent/change pairs of ledger workloads, with the verdict.

``tools/ledger_pairs.py REF [--workload all | W[,W...]] [--pairs 10] [--seed 1995] [--layers]
[--allow NAME[,NAME...]]``

``all`` (the default) is every workload ``BENCHMARK.json`` declares;
each workload named is run in turn and gets its own table.

Unpacks commit ``REF`` (the parent) with ``git archive`` and copies this
working tree (tracked and untracked files, not ignored ones) into two
fresh sibling directories — nothing is added to ``.git``, and neither
side starts with warmer bytecode caches or a faster filesystem than the
other, which ``setup_s`` would show — then runs the command
``BENCHMARK.json`` declares, for its ``run_seconds``, in both,
``--pairs`` times, alternating which side goes first (choosing-metrics
§8).  Every run's last stdout line is the driver's result line.  Per
end-to-end metric it prints both sides' median and quartiles, how many
pairs the change won (ties count for neither), and:

``gain``        the change won at least nine tenths of the pairs and its
                median is better by more than the parent's interquartile
                range;
``ok``          the change's median is no worse than the parent's by more
                than the metric's ``bound``, and the parent's own min-max
                spread is inside that bound (or every run of the change
                beats every run of the parent);
``unresolved``  the runs cannot tell: the medians are within the bound but
                the parent's runs spread wider than it, or beyond the
                bound with overlapping runs;
``worse``       beyond the bound, every run of the change worse than every
                run of the parent.

No verdict is given if a run of either side reports ``correct: false`` or
the change fails a larger share of its operations.  The result line
carries no simulated quantities, so one whole-ledger run per side
(``run.py --only W --repeats 3 --out DIR``) follows and their ``sim``
blocks — every simulated count and latency — are compared for equality;
where they differ, the keys that do are printed as ``key: parent -> change``.
With ``--layers`` five traced runs per side (``--trace 1``, alternating
which side goes first) follow that, to show *where* a saving appears
(choosing-metrics §6.6): every per-layer ``*_self_s`` whose two medians
differ by more than the parent's interquartile range is printed as
``name: parent -> change`` (medians of seconds: indicative, not a
verdict), and so is every per-layer count whose medians differ at all —
a count that moves when nothing simulated changed is a finding.
A change that moves some of these on purpose names them with ``--allow``:
``sim`` keys and per-layer count names (dotted, so the two never
collide) in one list.  Those are printed apart, as allowed; any other
difference still fails.
Exit status: 0, or 1 if any workload had a refused verdict, a ``worse``,
unequal ``sim`` blocks or unequal layer counts outside the allowed names.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack(ref: str, parent_tree: Path, change_tree: Path) -> None:
    """``ref`` into ``parent_tree``, the working tree into ``change_tree``."""
    parent_tree.mkdir()
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive.stdout, check=True)
    listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"],
                            cwd=ROOT, capture_output=True, check=True)
    for name in filter(None, listed.stdout.decode().split("\0")):
        if (ROOT / name).is_file():  # a tracked file may be deleted in the working tree
            (change_tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, change_tree / name)


def run_once(tree: Path, command: list[str], args: list[str]) -> dict:
    """The driver's result line of one benchmark run in ``tree``."""
    done = subprocess.run(command + args, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{tree}: no result line (exit {done.returncode})\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def sim_block(tree: Path, command: list[str], workload: str, seed: int, out: Path) -> dict:
    subprocess.run(
        command + ["--only", workload, "--seed", str(seed), "--repeats", "3", "--out", str(out)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads((out / "LEDGER.json").read_text())["workloads"][workload]["sim"]


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3]."""
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> tuple:
    """(verdict, wins) for one metric's paired runs."""
    if not lower_is_better:
        parent, change = [-v for v in parent], [-v for v in change]
    wins = sum(c < p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    scale = abs(p_med) or 1.0
    if wins >= 0.9 * len(parent) and p_med - c_med > p_q3 - p_q1:
        return "gain", wins
    clear = max(change) < min(parent)
    if c_med - p_med <= bound * scale:
        spread = (max(parent) - min(parent)) / scale
        return ("ok" if spread <= bound or clear else "unresolved"), wins
    return ("worse" if min(change) > max(parent) else "unresolved"), wins


def workload_names(arg: str, bench: dict) -> list[str]:
    """``all`` is every workload ``bench`` declares; otherwise a comma list."""
    if arg == "all":
        return [w["name"] for w in bench["workloads"]]
    return [name for name in arg.split(",") if name]


def sim_diff(parent: dict, change: dict) -> list[str]:
    """``key: parent -> change`` for every key whose values differ."""
    rows = []
    for key in sorted(parent.keys() | change.keys()):
        before, after = parent.get(key, "absent"), change.get(key, "absent")
        if before != after:
            rows.append(f"{key}: {json.dumps(before)} -> {json.dumps(after)}")
    return rows


def report_differences(what: str, noun: str, rows: list[str], allowed: set[str]) -> int:
    """Print ``rows`` (``name: parent -> change``), those ``allowed`` apart; 1 if any is not."""
    named = [row for row in rows if row.split(": ", 1)[0] in allowed]
    unexpected = [row for row in rows if row not in named]
    if named:
        print(f"{what} allowed to differ ({noun}: parent -> change): " + "; ".join(named))
    if unexpected:
        print(f"{what} DIFFER ({noun}: parent -> change): " + "; ".join(unexpected))
        return 1
    return 0


def name_set(text: str) -> set[str]:
    """``a,b,`` -> {"a", "b"}."""
    return set(filter(None, text.split(",")))


TRACED_RUNS = 5  # per side, for --layers; one traced run is too noisy to name a layer


def layer_diff(parent: list[dict], change: list[dict]) -> tuple[float, float, list[str], list[str]]:
    """Each side's traced result lines' ``metrics``, compared by median.

    Returns each side's median traced seconds (every span's self time
    plus the CPU time no span covered), ``name: parent -> change`` for
    every ``*_self_s`` whose medians differ by more than the parent's
    interquartile range, and the same for every count whose medians
    differ.
    """
    def values(runs: list[dict], name: str) -> list[float]:
        return [run.get(name, {"value": 0})["value"] for run in runs]

    def traced_s(run: dict) -> float:
        return sum(entry["value"] for name, entry in run.items()
                   if name.endswith("_self_s") or name == "trace.unattributed_s")

    parent_s, change_s = (statistics.median(map(traced_s, runs)) for runs in (parent, change))
    units = {name: entry["unit"] for run in parent + change for name, entry in run.items()}
    moved, counts = [], []
    for name in sorted(units):
        p_q1, before, p_q3 = quartiles(values(parent, name))
        after = statistics.median(values(change, name))
        if name.endswith("_self_s"):
            if abs(after - before) > p_q3 - p_q1:
                moved.append(f"{name}: {before:.3g} -> {after:.3g}")
        elif units[name] == "count" and before != after:
            counts.append(f"{name}: {before:g} -> {after:g}")
    return parent_s, change_s, moved, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the parent commit")
    parser.add_argument("--workload", default="all",
                        help="all (default: every BENCHMARK.json workload) or a comma list")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--layers", action="store_true",
                        help=f"{TRACED_RUNS} traced runs per side: the layers whose median "
                             "self time moved, and any per-layer count that differs")
    parser.add_argument("--allow", type=name_set, default=set(), metavar="NAME,...",
                        help="sim keys and per-layer counts this change may move "
                             "(any other difference fails)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="ledger_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        unpack(args.ref, trees["parent"], trees["change"])
        # Every workload runs, whatever the ones before it said.
        statuses = [compare(workload, trees, bench, args)
                    for workload in workload_names(args.workload, bench)]
    return max(statuses, default=0)


def compare(workload: str, trees: dict[str, Path], bench: dict, args: argparse.Namespace) -> int:
    """Pairs, verdict table and ``sim`` comparison of one workload; its exit status."""
    command = bench["command"]
    run_args = ["--workload", workload, "--seed", str(args.seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], command, run_args))
        row = "  ".join(
            f"{side} " + " ".join(f"{m['name']}={runs[side][-1]['metrics'][m['name']]['value']:.4g}"
                                  for m in bench["end_to_end"])
            for side in ("parent", "change")
        )
        print(f"pair {pair + 1:2d} ({order[0]} first): {row}", flush=True)

    sims = {side: sim_block(tree, command, workload, args.seed, tree.parent / f"sim_{side}_{workload}")
            for side, tree in trees.items()}

    failed = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
              for side, rs in runs.items()}
    incorrect = [side for side, rs in runs.items() if not all(r["correct"] for r in rs)]
    refused = None
    if incorrect:
        refused = f"correct: false on {', '.join(incorrect)}"
    elif failed["change"] > failed["parent"]:
        refused = f"the change fails more: {failed['change']:.3g} of attempted vs {failed['parent']:.3g}"

    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of {bench['run_seconds']} s, "
          f"parent {args.ref}; failed {failed['parent']:.3g} -> {failed['change']:.3g}")
    print(f"{'metric':12s} {'parent median (q1-q3)':>30s} {'change median (q1-q3)':>30s} "
          f"{'ratio':>6s} {'wins':>6s} {'bound':>6s}  verdict")
    status = 0
    for metric in bench["end_to_end"]:
        name = metric["name"]
        sides = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        result, wins = verdict(sides["parent"], sides["change"], metric["better"] == "lower", metric["bound"])
        if refused:
            result = "refused"
        if result in ("worse", "refused"):
            status = 1
        quarts = {side: quartiles(values) for side, values in sides.items()}
        cells = {side: "{1:.4g} ({0:.4g}-{2:.4g})".format(*q) for side, q in quarts.items()}
        ratio = quarts["parent"][1] / (quarts["change"][1] or float("nan"))
        print(f"{name:12s} {cells['parent']:>30s} {cells['change']:>30s} "
              f"{ratio:5.2f}x {wins:3d}/{args.pairs:<2d} {metric['bound']:6.2f}  {result}")
    if refused:
        print(f"no verdict: {refused}")
    if sims["parent"] == sims["change"]:
        print("sim blocks equal: " + json.dumps(sims["change"], sort_keys=True))
    else:
        status |= report_differences("sim blocks", "key", sim_diff(**sims), args.allow)
    if args.layers:
        traced: dict[str, list[dict]] = {"parent": [], "change": []}
        for run in range(TRACED_RUNS):
            for side in ("parent", "change") if run % 2 == 0 else ("change", "parent"):
                traced[side].append(run_once(trees[side], command, [
                    "--workload", workload, "--seed", str(args.seed), "--trace", "1",
                ])["metrics"])
        parent_s, change_s, moved, counts = layer_diff(**traced)
        print(f"layers, medians of {TRACED_RUNS} traced runs per side ({parent_s:.3g} -> "
              f"{change_s:.3g} s; self times that moved by more than the parent's IQR): "
              + ("; ".join(moved) or "none"))
        if counts:
            status |= report_differences("layer counts", "name", counts, args.allow)
        else:
            print("layer counts equal")
    return status


if __name__ == "__main__":
    sys.exit(main())
