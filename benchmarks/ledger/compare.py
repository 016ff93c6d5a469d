#!/usr/bin/env python3
"""Compare two ledger outputs: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both reported values (for a
host time: every slice of the timed region at its fastest repeat; see
run.py), the relative change from A to B, the metric's bound and a verdict:

``ok``          B's value is no worse than A's by more than the bound;
``worse``       it is, and every repeat of B reads worse than every repeat
                of A (for bound-0 metrics, which are functions of the
                seed: any increase at all);
``unresolved``  the values differ by more than the bound but the two
                sets' min-max ranges of whole repeats overlap, so the runs
                cannot tell;
``n/a``         the workload has no such quantity (in both files).

All end-to-end metrics are lower-is-better.  Exits 1 on any ``worse``
(or on a workload or metric present in only one file), 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END  # noqa: E402

__all__ = ["compare", "verdict", "main"]


def verdict(a: dict | None, b: dict | None, bound: float) -> tuple[str, float | None]:
    """(verdict, relative change of the value) for one metric's two stats."""
    if a is None and b is None:
        return "n/a", None
    if a is None or b is None:
        return "worse", None
    if a["value"]:
        change = (b["value"] - a["value"]) / a["value"]
    else:
        change = 0.0 if b["value"] == a["value"] else float("inf")
    if change <= bound:
        return "ok", change
    if bound and b["min"] <= a["max"]:
        return "unresolved", change
    return "worse", change


def compare(ledger_a: dict, ledger_b: dict) -> list[dict]:
    rows = []
    names = list(ledger_a["workloads"])
    names += [n for n in ledger_b["workloads"] if n not in ledger_a["workloads"]]
    for name in names:
        a = ledger_a["workloads"].get(name)
        b = ledger_b["workloads"].get(name)
        skipped = [w for w in (a, b) if w is None or "skipped" in w]
        if skipped:
            # Skipped on both sides is an honest "cannot tell"; on one side
            # the comparison itself is broken.
            rows.append({"workload": name, "metric": "-", "a": None, "b": None, "change": None,
                         "bound": None, "verdict": "skipped" if len(skipped) == 2 else "worse"})
            continue
        for metric in END_TO_END:
            stat_a, stat_b = a["metrics"].get(metric["name"]), b["metrics"].get(metric["name"])
            result, change = verdict(stat_a, stat_b, metric["bound"])
            rows.append({
                "workload": name, "metric": metric["name"],
                "a": stat_a and stat_a["value"], "b": stat_b and stat_b["value"],
                "change": change, "bound": metric["bound"], "verdict": result,
            })
    return rows


def _cell(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    ledger_a, ledger_b = (json.loads(Path(path).read_text()) for path in args)
    if ledger_a.get("seed") != ledger_b.get("seed") or ledger_a.get("smoke") != ledger_b.get("smoke"):
        print("warning: the two ledgers were run with different seeds or sizes; "
              "bound-0 metrics will differ", file=sys.stderr)
    rows = compare(ledger_a, ledger_b)
    print(f"{'workload':15s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:15s} {row['metric']:16s} {_cell(row['a'], '12.6g'):>12s} "
              f"{_cell(row['b'], '12.6g'):>12s} {_cell(row['change'], '+8.1%'):>8s} "
              f"{_cell(row['bound'], '6.2f'):>6s}  {row['verdict']}")
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
