#!/usr/bin/env python3
"""The perf ledger: one command, six named workloads, every runtime.

Two ways in, one code path:

``run.py [--seed 1995] [--only W,...] [--repeats 5] [--trace] [--out DIR]``
    the whole ledger: every workload in a fresh child process, one at a
    time (so CPU and peak RSS are per workload and at most the workload's
    own processes are busy), merged into ``DIR/LEDGER.json``; ``--trace``
    adds a separate traced pass per workload (``DIR/TRACE_<w>.json``).

``run.py --workload W --seed N --seconds S --trace 0|1``
    one workload in this process — what the whole-ledger mode spawns and
    what a benchmark driver calls.  Repeats the workload for ``S`` seconds
    of host time (at least ``--repeats`` times), prints every metric by
    name with its unit, and ends with one JSON line ``{"correct",
    "attempted", "failed", "metrics"}``: end-to-end metrics with
    ``--trace 0``, per-layer metrics with ``--trace 1``.

A workload cuts its timed region into slices whose work is the same in
every repeat.  The reported ``wall_s``/``cpu_s`` charge each slice its
fastest repeat (this is a shared host: its other tenants only ever add
time), ``setup_s`` is the fastest set-up; the median, min and max of the
whole repeats and their count are printed beside each.  Simulated
quantities are functions of the seed and must be identical in every
repeat and under tracing — a mismatch is a failure, not noise.
Exit codes: 0 pass, 1 a correctness gate or determinism check failed,
3 the workload cannot run here (recorded as ``skipped``).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A plain checkout has no PYTHONPATH; the program under test lives in src/.
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

_import_start = time.perf_counter()

from repro import obs  # noqa: E402

from metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER, WORKLOADS, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOAD_CLASSES, Skipped  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

EXIT_FAILED, EXIT_SKIPPED = 1, 3
UNITS = {m["name"]: m["unit"] for m in END_TO_END}


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _cpu() -> float:
    """User+sys CPU of this process and its waited-for children."""
    return time.process_time() + _cpu_children()


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Reference:
    """A fixed piece of Python work, timed at every slice boundary.

    This is a shared host: for minutes at a time its other tenants slow
    the same work by 20-40 %, CPU time as much as wall time, so seconds
    measured in one run do not compare with seconds measured in the next.
    The reference is work that never changes (a walk over small objects
    that are cold in the cache by the time it runs again, like most of
    the program's own data); how long it takes *beside* the workload says
    how fast the host was just then, and the run's host times are scaled
    to the speed at which one walk takes ``NOMINAL_S`` seconds.
    """

    OBJECTS, STEPS, STRIDE = 20_000, 400, 977
    NOMINAL_S = 450e-6  # one walk beside a sim workload, on this box, in a quiet minute

    def __init__(self) -> None:
        rng = random.Random(1995)
        self.objects = [{"a": i, "b": [i, i + 1], "c": str(i)} for i in range(self.OBJECTS)]
        self.order = list(range(self.OBJECTS))
        rng.shuffle(self.order)
        self.at = 0

    def walk(self) -> int:
        objects, order, start = self.objects, self.order, self.at
        total = 0
        for j in range(start, start + self.STEPS):
            entry = objects[order[j % self.OBJECTS]]
            total += entry["a"] + len(entry["b"]) + len(entry["c"])
        self.at = (start + self.STRIDE) % self.OBJECTS
        return total


def measure(name: str, seed: int, p: dict, tracer: Tracer | None = None,
            reference: Reference | None = None):
    """One unit of work: set up, run the timed region, read the outcome.

    Returns ``(workload, unit)``.  The workload calls ``lap`` at every
    slice boundary of its timed region; ``unit["wall_slices"]`` and
    ``unit["cpu_slices"]`` hold each slice's time and, with a
    ``reference``, ``unit["wall_refs"]``/``unit["cpu_refs"]`` what one
    reference walk took at the end of each slice (never counted into a
    slice).  With a ``tracer``, entry points are wrapped before anything
    is built and spans are kept for the timed region only, so they
    compare with ``cpu_s``.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
    # (wall, cpu) when a slice ended and when the next one began.
    ended, began = [], []
    clock = time.perf_counter
    walk = reference.walk if reference is not None else None

    def lap() -> None:
        ended.append((clock(), _cpu()))
        if walk is not None:
            walk()
            began.append((clock(), _cpu()))

    try:
        start = clock()
        workload = WORKLOAD_CLASSES[name](seed, p)
        workload.setup()
        build_s = clock() - start
        if tracer is not None:
            tracer.reset()
        children0 = _cpu_children()
        lap()
        workload.run(lap)
        lap()
        children_s = _cpu_children() - children0
    finally:
        if tracer is not None:
            tracer.uninstall()
    unit = workload.finish()
    if walk is None:
        began = ended
    for k, clock_name in enumerate(("wall", "cpu")):
        slices = [end[k] - begin[k] for begin, end in zip(began, ended[1:])]
        unit[f"{clock_name}_slices"] = slices
        unit[f"{clock_name}_s"] = sum(slices)
        if walk is not None:
            unit[f"{clock_name}_refs"] = [b[k] - e[k] for e, b in zip(ended[1:], began[1:])]
    unit.update(build_s=build_s, children_cpu_s=children_s)
    return workload, unit


def _stat(unit: str, values: list, n: int | None = None, value: float | None = None) -> dict:
    """One metric: the reported ``value`` and what the repeats looked like."""
    median = statistics.median(values)
    return {
        "unit": unit,
        "value": median if value is None else value,
        "median": median,
        "min": min(values),
        "max": max(values),
        "n": len(values) if n is None else n,
    }


def _floor(units: list, key: str) -> list:
    """Each slice (or reference walk) at its fastest repeat.

    A slice does the same work in every repeat, and whatever else the host
    is doing can only add to its time, never take away.
    """
    return list(map(min, zip(*(unit[key] for unit in units))))


def _host_speed(units: list, clock_name: str) -> float:
    """Nominal seconds per measured second of this run, by one clock.

    The reference walk's floor, position by position like the slices it
    sits between, against what a walk costs at nominal speed.
    """
    return Reference.NOMINAL_S / statistics.fmean(_floor(units, f"{clock_name}_refs"))


def _import_once() -> float:
    """Seconds a fresh interpreter takes to import the program and the ledger."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
        "import tracing, workloads; print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


# -- the untraced pass: end-to-end metrics -------------------------------------------

IMPORT_SAMPLES = 5


def run_untraced(name: str, seed: int, p: dict, min_repeats: int, seconds: float) -> dict:
    """Repeat the unit for ``seconds`` of host time (at least ``min_repeats`` times)."""
    began = time.perf_counter()
    reference = Reference()
    units, imports = [], [IMPORT_S]
    workload = None
    longest = 0.0
    while len(units) < min_repeats or time.perf_counter() - began + longest < seconds:
        unit_began = time.perf_counter()
        workload = None  # free the previous unit's world before building the next
        workload, unit = measure(name, seed, p, reference=reference)
        units.append(unit)
        if len(imports) < IMPORT_SAMPLES:
            # Spread over the run, so one noisy moment cannot colour them all.
            imports.append(_import_once())
        longest = max(longest, time.perf_counter() - unit_began)
    peak_rss_mb = _peak_rss_mb()  # before any untimed twin inflates it

    first = units[0]
    errors = []
    for i, unit in enumerate(units):
        errors += [f"repeat {i}: {e}" for e in unit["errors"]]
        if unit["sim"] != first["sim"]:
            errors.append(f"repeat {i} is not deterministic: {unit['sim']} != {first['sim']}")
        if len(unit["wall_slices"]) != len(first["wall_slices"]):
            errors.append(f"repeat {i} has {len(unit['wall_slices'])} slices, "
                          f"repeat 0 has {len(first['wall_slices'])}")
    if hasattr(workload, "check_once"):
        errors += workload.check_once(first)

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    sim = first["sim"]
    # Importing the program is set-up every fresh process pays, so it counts
    # toward setup_s (and work a later change moves to import time shows).
    setups = [min(imports) + u["build_s"] for u in units]
    speed = {clock_name: _host_speed(units, clock_name) for clock_name in ("wall", "cpu")}
    walls = [u["wall_s"] for u in units]
    if getattr(workload, "PACED", False):
        # A schedule neither runs faster on a faster host nor has a fastest
        # repeat worth finding (a slice that started late is short, not
        # quick): paced wall time is the plain median of the repeats.
        wall_s = statistics.median(walls)
    else:
        wall_s = sum(_floor(units, "wall_slices")) * speed["wall"]
    metrics = {
        "setup_s": _stat("s", setups, value=min(setups) * speed["wall"]),
        "wall_s": _stat("s", walls, value=wall_s),
        "cpu_s": _stat("s", [u["cpu_s"] for u in units],
                       value=sum(_floor(units, "cpu_slices")) * speed["cpu"]),
        "peak_rss_mb": _stat("MB", [peak_rss_mb]),
        "failed_ratio": _stat("ratio", [failed / attempted], n=attempted),
    }
    for key in ("recovery_p50_ms", "recovery_p99_ms", "primary_nacks"):
        samples = sim.get("recoveries", sim.get("modeled_recoveries", 0))
        metrics[key] = _stat(UNITS[key], [sim[key]], n=samples) if key in sim else None
    return {
        "workload": name, "seed": seed, "params": p, "repeats": len(units),
        "slices": len(first["wall_slices"]),
        "correct": not errors and failed == 0, "errors": errors,
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "sim": sim,
        "info": {**first["info"], "import_s": min(imports), "import_samples": len(imports),
                 "host_speed_wall": speed["wall"], "host_speed_cpu": speed["cpu"]},
    }


# -- the traced pass: per-layer metrics ------------------------------------------------


def _extras_exact_lossy(seed: int, p: dict, plain: dict, errors: list) -> dict:
    """What leaving obs on costs: the same unit under a recording registry."""
    with obs.recording():
        _, recorded = measure("exact_lossy", seed, p)
    if recorded["sim"] != plain["sim"]:
        errors.append("a recording obs registry perturbed the run")
    return {"obs.on_overhead_ratio": recorded["cpu_s"] / plain["cpu_s"]}


def _extras_agg_sharded(seed: int, p: dict, plain: dict, errors: list) -> dict:
    """The sharding verdict: real workers vs the same shards inline vs one shard."""
    n_shards = p["n_shards"]
    workload, mp = measure("agg_sharded", seed, {**p, "inline": False})
    _, single = measure("agg_sharded", seed, {**p, "inline": True, "n_shards": 1})
    for label, unit in (("multi-process", mp), ("single-shard", single)):
        if unit["sim"]["protocol_digest"] != plain["sim"]["protocol_digest"]:
            errors.append(f"{label} digest differs from the inline {n_shards}-shard digest")
    scenario = workload.scenario
    window = scenario.spec.wan_one_way()
    return {
        "scale.shard.mp_wall_s": mp["wall_s"],
        "scale.shard.inline_wall_s": plain["wall_s"],
        "scale.shard.single_cpu_s": single["cpu_s"],
        "scale.shard.ipc_overhead_s": mp["wall_s"] - plain["wall_s"] / n_shards,
        "scale.shard.parallel_efficiency": single["cpu_s"] / (n_shards * mp["wall_s"]),
        "scale.shard.worker_cpu_s": mp["children_cpu_s"],
        # One barrier per WAN window plus the closing one (run_sharded's schedule).
        "scale.shard.barriers": int(-(-scenario.end_time // window)),
    }


TRACE_EXTRAS = {"exact_lossy": _extras_exact_lossy, "agg_sharded": _extras_agg_sharded}


def run_traced(name: str, seed: int, p: dict) -> dict:
    if name == "agg_sharded":
        # Worker processes cannot be traced from outside: the layer split
        # comes from the same shards run inline.
        p = {**p, "inline": True}
    _, plain = measure(name, seed, p)
    tracer = Tracer()
    _, traced = measure(name, seed, p, tracer)

    errors = [f"untraced: {e}" for e in plain["errors"]]
    errors += [f"traced: {e}" for e in traced["errors"]]
    if traced["sim"] != plain["sim"]:
        errors.append(f"tracing perturbed the run: {traced['sim']} != {plain['sim']}")

    attributed = tracer.attributed_s()
    supplied = dict(traced["layers"])
    supplied["trace.overhead_ratio"] = traced["cpu_s"] / plain["cpu_s"]
    supplied["trace.attributed_ratio"] = attributed / traced["cpu_s"]
    supplied["trace.unattributed_s"] = max(0.0, traced["cpu_s"] - attributed)
    rescored = tracer.calls("core.hierarchy.rescore") * traced["info"].get("tree_nodes", 0)
    if rescored:
        supplied["core.hierarchy.rescore_us_per_node"] = (
            tracer.self_s("core.hierarchy.rescore") * 1e6 / rescored
        )
    if name in TRACE_EXTRAS:
        supplied.update(TRACE_EXTRAS[name](seed, p, plain, errors))

    values = layer_metrics(tracer, supplied)
    failed = plain["failed"] + traced["failed"]
    return {
        "workload": name, "seed": seed, "params": p,
        "correct": not errors and failed == 0, "errors": errors,
        "attempted": plain["attempted"] + traced["attempted"], "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _better, _source in PER_LAYER
        },
        "untraced": {k: plain[k] for k in ("build_s", "wall_s", "cpu_s")},
        "traced": {k: traced[k] for k in ("build_s", "wall_s", "cpu_s")},
        "sim": plain["sim"], "info": plain["info"],
        "trace": tracer.to_json(),
    }


# -- one workload in this process -----------------------------------------------------


def _print_untraced(record: dict) -> None:
    info = record["info"]
    print(f"{record['workload']:15s} host speed       wall {info['host_speed_wall']:.4f}, "
          f"cpu {info['host_speed_cpu']:.4f} of nominal "
          f"({record['repeats']} repeats of {record['slices']} slices)")
    for metric, stat in record["metrics"].items():
        if stat is None:
            print(f"{record['workload']:15s} {metric:16s} n/a")
        else:
            print(f"{record['workload']:15s} {metric:16s} {stat['value']:.6g} {stat['unit']}"
                  f"  (median {stat['median']:.6g}, min {stat['min']:.6g}, "
                  f"max {stat['max']:.6g}, n={stat['n']})")


def _print_traced(record: dict) -> None:
    for metric, entry in record["metrics"].items():
        print(f"{record['workload']:15s} {metric:36s} {entry['value']:.6g} {entry['unit']}")


def run_one(args) -> int:
    name = args.workload
    p = SIZES[name]["smoke" if args.smoke else "full"]
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            record = run_traced(name, args.seed, p)
        else:
            floor = args.repeats or (1 if args.smoke else 3 if args.seconds else 5)
            record = run_untraced(name, args.seed, p, floor, args.seconds)
    except Skipped as skipped:
        print(f"{name}: skipped: {skipped}")
        if out:
            (out / f"RUN_{name}.json").write_text(json.dumps({"skipped": str(skipped)}))
        return EXIT_SKIPPED

    if args.trace:
        _print_traced(record)
        result_metrics = record["metrics"]
        path = f"TRACE_{name}.json"
    else:
        _print_untraced(record)
        result_metrics = {
            metric: {"value": record["metrics"][metric]["value"], "unit": UNITS[metric]}
            for metric in DRIVER_END_TO_END
        }
        path = f"RUN_{name}.json"
    for error in record["errors"]:
        print(f"{name}: FAILED: {error}")
    if out:
        # One line: a trace record carries thousands of raw spans.
        (out / path).write_text(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": result_metrics,
    }))
    return 0 if record["correct"] else EXIT_FAILED


# -- the whole ledger --------------------------------------------------------------------


def run_all(args) -> int:
    names = args.only.split(",") if args.only else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; have {list(WORKLOADS)}")
    out = Path(args.out or HERE / "out")
    out.mkdir(parents=True, exist_ok=True)
    ledger = {
        "ledger": 1, "seed": args.seed, "smoke": args.smoke,
        "python": sys.version.split()[0], "workloads": {},
    }
    status = 0
    for name in names:
        base = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--out", str(out)]
        if args.smoke:
            base.append("--smoke")
        passes = [["--trace", "0", "--seconds", str(args.seconds)]]
        if args.repeats:
            passes[0] += ["--repeats", str(args.repeats)]
        if args.trace or args.smoke:
            passes.append(["--trace", "1"])
        for extra in passes:
            print(f"== {name} {' '.join(extra)}", flush=True)
            code = subprocess.run(base + extra).returncode
            if code not in (0, EXIT_SKIPPED):
                status = EXIT_FAILED
            if code == EXIT_SKIPPED:
                break
        run_file = out / f"RUN_{name}.json"
        if run_file.exists():
            ledger["workloads"][name] = json.loads(run_file.read_text())
            run_file.unlink()
        else:
            status = EXIT_FAILED
    (out / "LEDGER.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {out / 'LEDGER.json'}" + ("" if status == 0 else " (with failures)"))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload in-process and end with the result line")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating for this much host time (set-up included)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats (a floor when --seconds is set); default 5, 3 with --seconds, 1 with --smoke")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced pass: per-layer metrics (whole-ledger mode: in addition)")
    parser.add_argument("--only", help="whole-ledger mode: comma-separated workload names")
    parser.add_argument("--out", help="directory for LEDGER.json / TRACE_<workload>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 sizes, 1 repeat, traced: a quick check, not a measurement")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
