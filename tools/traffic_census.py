#!/usr/bin/env python3
"""Who calls what: a census of every function and option under ``src/repro/``.

``tools/traffic_census.py [--with-tests] [--write] [--totals]``

Runs every *shipped* entry point (``ENTRY_POINTS``: the ledger workloads,
every ``repro`` subcommand and tier CI or the README names, the examples
and the paper benches) in a child process that installs ``sys.setprofile``
and ``threading.setprofile`` and records each code object under
``src/repro/`` it enters; ``--with-tests`` does the same for tier-1.  A
child dumps what it saw at ``atexit`` and before ``os._exit`` (forked shard
workers leave through it).  Code objects are resolved to
``module:qualname`` through an ``ast`` walk by ``(file, first line)`` —
Python 3.10 has no ``co_qualname`` — so the same walk tells the ratchet
test (``tests/test_traffic_census.py``) which functions exist.

Output (``--write``: ``docs/traffic_census.json``, else a summary only):
per function ``shipped`` (an entry point reached it) / ``tests`` (only
``pytest`` did) / ``none``; per ``core/config.py`` field who *sets* it
(``shipped`` / ``tests`` / ``nobody``: a keyword in a constructor or
``replace`` call under ``src benchmarks examples tools``, or ``tests``) and
whether anything under ``src/`` reads it outside ``__post_init__``.  No
line numbers and no call counts: every entry point is seeded, so a rerun
is byte-identical.  (Real sockets could break that — a datagram lost on
loopback would run a retry path — but no aio entry point has shown it in
any run so far; docs/TRAFFIC.md says what to do when one does.)

Without ``--with-tests`` only the shipped pass runs (about a minute): the
summary is right about ``shipped`` and cannot tell ``tests`` from ``none``,
so ``--write`` is refused.
``docs/TRAFFIC.md`` explains how to read the result;
``tools/census_allowlist.json`` holds the reason every non-``shipped`` name
is still there.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import concurrent.futures
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CENSUS = ROOT / "docs" / "traffic_census.json"
ALLOWLIST = ROOT / "tools" / "census_allowlist.json"
CONFIG = PACKAGE / "core" / "config.py"
SHIPPED_DIRS = ("src", "benchmarks", "examples", "tools")

_REPRO = ["-m", "repro"]
_LEDGER = ["benchmarks/ledger/run.py", "--repeats", "1", "--workload"]
_BENCH = _REPRO + ["bench", "--out", "{tmp}"]

# name -> argv after ``python`` (``{tmp}`` is a scratch directory).  Every
# command writes its artefacts there, never into the checkout.
ENTRY_POINTS: dict[str, list[str]] = {
    **{f"ledger:{w}": _LEDGER + [w] for w in (
        "exact_fanout", "exact_lossy", "tree_outage", "agg_sharded", "aio_offered",
        "logger_service")},
    "bench --quick --check": _BENCH + ["--quick", "--check", "benchmarks/results/quick",
                                       # the hook slows every rate; the gate's code still runs
                                       "--check-tolerance", "0.99"],
    "bench --full": _BENCH + ["--full"],
    "bench --scale": _BENCH + ["--scale"],
    "bench --hierarchy": _BENCH + ["--hierarchy"],
    "bench --aio": _BENCH + ["--aio"],
    "chaos --quick": _REPRO + ["chaos", "--quick", "--seed", "4", "--out", "{tmp}"],
    "chaos --full": _REPRO + ["chaos", "--full", "--seed", "4", "--out", "{tmp}"],
    "chaos --sabotage": _REPRO + ["chaos", "--quick", "--seed", "4", "--sabotage",
                                  "logger-retrans", "--out", "{tmp}"],
    "hierarchy-chaos --quick": _REPRO + ["hierarchy-chaos", "--quick", "--seed", "4",
                                         "--out", "{tmp}"],
    **{f"failover-sweep {' '.join(flags)}": _REPRO + ["failover-sweep", *flags, "--seed", "0",
                                                      "--out", "{tmp}"]
       for flags in (["--micro"], ["--quick"], ["--quick", "--double"],
                     ["--quick", "--readopt"])},
    "aio-smoke": _REPRO + ["aio-smoke", "--out", "{tmp}/AIO.json"],
    "aio-smoke --discovery": _REPRO + ["aio-smoke", "--discovery", "--out", "{tmp}/AIO.json"],
    "aio-smoke --discovery --bundling": _REPRO + ["aio-smoke", "--discovery", "--bundling",
                                                  "--out", "{tmp}/AIO.json"],
    "metrics": _REPRO + ["metrics"],
    "metrics --json": _REPRO + ["metrics", "--json", "--sites", "3", "--receivers", "2",
                                "--seed", "7", "--trace", "5"],
    "info": _REPRO + ["info"],
    "headline": _REPRO + ["headline"],
    **{f"demo:{d}": _REPRO + [d] for d in ("quickstart", "dis", "ticker", "failover", "live",
                                           "web")},
    **{f"example:{p.stem}": [f"examples/{p.name}"]
       for p in sorted((ROOT / "examples").glob("*.py"))},
    # pytest-benchmark switches the profile hook off inside a timed call,
    # so the benches run their bodies once, untimed.
    "paper benches": ["-m", "pytest", "benchmarks/", "--ignore=benchmarks/ledger",
                      "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
}
# A sabotaged campaign exits 1: detecting the sabotage is the point.
EXPECTED_EXIT = {"chaos --sabotage": 1}

# The ratchet test reads the census being rewritten: a stale one must not
# stop its own refresh.
TESTS_ARGV = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
              "--deselect", "tests/test_traffic_census.py"]


# -- the ast walk: which functions exist --------------------------------------------------


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def functions_in(path: Path) -> dict[int, str]:
    """First line (decorators included, as ``co_firstlineno`` counts) -> qualname."""
    found: dict[int, str] = {}
    taken: set[str] = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                # A property's setter shares its getter's qualname.
                for deco in child.decorator_list:
                    if isinstance(deco, ast.Attribute) and deco.attr in ("setter", "deleter"):
                        name += f"[{deco.attr}]"
                while name in taken:
                    name += "'"
                taken.add(name)
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = name
                visit(child, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def all_functions() -> dict[str, dict[int, str]]:
    """Resolved path of every module under ``src/repro`` -> its functions."""
    return {str(p.resolve()): {line: f"{module_name(p)}:{q}"
                               for line, q in functions_in(p).items()}
            for p in sorted(PACKAGE.rglob("*.py"))}


def function_keys() -> list[str]:
    return sorted(key for table in all_functions().values() for key in table.values())


# -- the option table ---------------------------------------------------------------------


def config_fields() -> dict[str, str]:
    """Leaf field name -> ``Class.field`` for every bundle in ``core/config.py``."""
    fields: dict[str, str] = {}
    for node in ast.parse(CONFIG.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name != "LbrmConfig":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    assert stmt.target.id not in fields, f"ambiguous field {stmt.target.id}"
                    fields[stmt.target.id] = f"{node.name}.{stmt.target.id}"
    return fields


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def option_table() -> dict[str, dict[str, object]]:
    fields = config_fields()
    classes = {full.split(".")[0] for full in fields.values()}
    setters: dict[str, set[str]] = {name: set() for name in fields}
    read: set[str] = set()
    for top in SHIPPED_DIRS + ("tests",):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if path == CONFIG:  # validation is not a reader
                for cls in tree.body:
                    if isinstance(cls, ast.ClassDef):
                        cls.body = [s for s in cls.body
                                    if getattr(s, "name", "") != "__post_init__"]
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = _callee(node)
                    for kw in node.keywords:
                        if kw.arg in fields and (
                                callee == "replace"
                                or callee == fields[kw.arg].split(".")[0]):
                            setters[kw.arg].add("tests" if top == "tests" else "shipped")
                    assert callee not in classes or not node.args, (
                        f"{path}: positional {callee}(...) hides which fields are set")
                elif (top == "src" and isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load) and node.attr in fields):
                    read.add(node.attr)
    return {
        fields[name]: {
            "set_by": "shipped" if "shipped" in who else "tests" if who else "nobody",
            "read": name in read,
        }
        for name, who in setters.items()
    }


# -- the child: record every code object entered ------------------------------------------


def _child(out: str, argv: list[str]) -> None:
    seen: dict[int, object] = {}
    prefix = str(PACKAGE.resolve()) + os.sep

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code  # the reference keeps the id unique

    def dump() -> None:
        pairs = {(os.path.realpath(code.co_filename), code.co_firstlineno)
                 for code in list(seen.values())}
        Path(f"{out}.{os.getpid()}").write_text(
            "\n".join(f"{file}\t{first}" for file, first in pairs if file.startswith(prefix)))

    real_exit = os._exit

    def exit_after_dump(status: int) -> None:
        dump()
        real_exit(status)

    os._exit = exit_after_dump
    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)
    sys.argv = argv[1:] if argv[0] == "-m" else argv
    if argv[:2] == ["-m", "pytest"]:
        import pytest

        class KeepHook:
            # cProfile (repro bench --profile, under test) uninstalls whatever
            # profile function it found.
            @staticmethod
            def pytest_runtest_setup(item):
                if sys.getprofile() is not hook:
                    sys.setprofile(hook)

        raise SystemExit(pytest.main(argv[2:], plugins=[KeepHook()]))
    if argv[0] == "-m":
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.path[0] = str(Path(argv[0]).resolve().parent)  # as `python script.py` has it
        runpy.run_path(argv[0], run_name="__main__")


# -- the parent: run the table, merge, classify -------------------------------------------


def run_entry(index: int, name: str, argv: list[str],
              scratch: Path) -> tuple[str, float, set[tuple[str, int]]]:
    """One traced child; the ``(file, first line)`` pairs it (and its forks) entered."""
    tmp = scratch / f"run{index}"
    tmp.mkdir()
    out = scratch / f"seen{index}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(out), "--",
         *(arg.replace("{tmp}", str(tmp)) for arg in argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1500)
    if done.returncode != EXPECTED_EXIT.get(name, 0):
        raise SystemExit(f"census: {name!r} exited {done.returncode}\n"
                         f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    seen = set()
    for dump in scratch.glob(f"{out.name}.*"):
        for line in dump.read_text().splitlines():
            file, first = line.split("\t")
            seen.add((file, int(first)))
    return name, time.perf_counter() - start, seen


def run_table(table: dict[str, list[str]]) -> set[str]:
    """Keys of every function some entry of ``table`` entered."""
    functions = all_functions()
    # The paper benches rewrite their committed tables (host timings move).
    results = {p: p.read_bytes() for p in (ROOT / "benchmarks" / "results").glob("*.txt")}
    reached: set[str] = set()
    try:
        with tempfile.TemporaryDirectory(prefix="census-") as scratch, \
                concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_entry, index, name, argv, Path(scratch))
                       for index, (name, argv) in enumerate(table.items())]
            for future in concurrent.futures.as_completed(futures):
                try:
                    name, seconds, seen = future.result()
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
                keys = {functions[file][first] for file, first in seen
                        if first in functions.get(file, ())}
                print(f"  {seconds:6.1f}s  {len(keys):4d} functions  {name}", flush=True)
                reached |= keys
    finally:
        for path, content in results.items():
            path.write_bytes(content)
    return reached


def census(with_tests: bool) -> dict:
    keys = function_keys()
    print(f"census: {len(ENTRY_POINTS)} shipped entry points")
    shipped = run_table(ENTRY_POINTS)
    tested: set[str] = set()
    if with_tests:
        print("census: tier-1")
        tested = run_table({"tier-1": TESTS_ARGV})
    status = {key: "shipped" if key in shipped else "tests" if key in tested else "none"
              for key in keys}
    totals = {value: sum(1 for v in status.values() if v == value)
              for value in ("shipped", "tests", "none")}
    return {
        "entry_points": list(ENTRY_POINTS) + ["tier-1 (tests)"],
        "totals": {"functions": len(keys), **totals},
        "functions": status,
        "options": option_table(),
    }


def render(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def summary(report: dict) -> str:
    totals = report["totals"]
    options = report["options"].values()
    unset = sum(1 for o in options if o["set_by"] != "shipped")
    return (f"{totals['functions']} functions under src/repro: {totals['shipped']} shipped, "
            f"{totals['tests']} tests only, {totals['none']} called by nothing; "
            f"{unset} of {len(options)} config fields set by no shipped caller, "
            f"{sum(1 for o in options if not o['read'])} read by nobody")


def main(argv: list[str] | None = None) -> int:
    if len(sys.argv) > 3 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[4:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--with-tests", action="store_true",
                        help="also trace tier-1 (needed to tell `tests` from `none`)")
    parser.add_argument("--write", action="store_true", help=f"write {CENSUS.relative_to(ROOT)}")
    parser.add_argument("--totals", action="store_true",
                        help="print the committed census's totals and the allowlist's size, "
                             "in all and per reason (what CI echoes)")
    args = parser.parse_args(argv)
    if args.write and not args.with_tests:
        parser.error("--write needs --with-tests")
    if args.totals:
        allowed = json.loads(ALLOWLIST.read_text())
        print(summary(json.loads(CENSUS.read_text())))
        print(f"{len(allowed['functions']) + len(allowed['options'])} allowlist entries "
              f"({ALLOWLIST.relative_to(ROOT)})")
        for kind in ("functions", "options"):
            reasons = Counter(reason for reason, _ in allowed[kind].values())
            print(f"  {kind} by reason: "
                  + ", ".join(f"{reason} {n}" for reason, n in reasons.most_common()))
        return 0
    report = census(args.with_tests)
    print(summary(report))
    if args.write:
        CENSUS.write_text(render(report))
        print(f"wrote {CENSUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
