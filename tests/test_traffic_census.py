"""The traffic-census ratchet (docs/TRAFFIC.md).

``docs/traffic_census.json`` says, per function under ``src/repro/``,
whether a shipped entry point calls it, only tests do, or nothing does;
``tools/census_allowlist.json`` gives every name that is not ``shipped``
(and every config field no shipped caller sets) one reason from a closed
vocabulary.  These tests make both files follow the source: a function
added without re-running the census, or left without a shipped caller or
a reason, fails here — and the allowlist may only shrink.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "traffic_census", ROOT / "tools" / "traffic_census.py")
traffic_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic_census)

# len(functions) + len(options) of the allowlist.  May only go down: an
# entry leaves when its function is deleted, moved test-side or gets a
# shipped caller.  Raising it needs the reviewer's yes, not a re-run.
ALLOWLIST_BOUND = 273

# The only names allowed the reason `next-sweep` ("no caller, no other
# reason, deleting it costs more pinned test ids than one PR may"): the set
# may lose members, never gain one (docs/TRAFFIC.md, ROADMAP 7a).
NEXT_SWEEP = {
    "repro.analysis.bandwidth:GroupBandwidth.tail_fraction",
    "repro.analysis.bandwidth:GroupBandwidth.total_bps",
    "repro.analysis.bandwidth:MessageSizes.for_group",
    "repro.analysis.bandwidth:group_bandwidth",
    "repro.analysis.report:format_comparison",
    "repro.baselines.centralized:centralized_spec",
    "repro.simnet.loss:CompositeLoss.__init__",
    "repro.simnet.loss:CompositeLoss.drops",
}

CENSUS = json.loads(traffic_census.CENSUS.read_text())
ALLOWLIST = json.loads(traffic_census.ALLOWLIST.read_text())


def test_census_lists_exactly_the_functions_and_fields_in_src():
    listed, present = set(CENSUS["functions"]), set(traffic_census.function_keys())
    assert listed == present, (
        f"docs/traffic_census.json is stale — run `make census`; "
        f"not in the census: {sorted(present - listed)}, gone from src: {sorted(listed - present)}"
    )
    assert CENSUS["options"] == traffic_census.option_table(), (
        "the option table is stale — run `make census`"
    )
    totals = CENSUS["totals"]
    assert totals["functions"] == len(listed)
    assert totals["shipped"] + totals["tests"] + totals["none"] == len(listed)


def test_every_name_without_a_shipped_caller_has_a_reason():
    unshipped = {k for k, v in CENSUS["functions"].items() if v != "shipped"}
    unset = {k for k, v in CENSUS["options"].items() if v["set_by"] != "shipped"}
    for kind, need, have in (("functions", unshipped, ALLOWLIST["functions"]),
                             ("options", unset, ALLOWLIST["options"])):
        assert not need - set(have), (
            f"{kind} with no shipped caller and no reason in tools/census_allowlist.json "
            f"(give them a caller, delete them, or state why they stay): {sorted(need - set(have))}"
        )
        assert not set(have) - need, (
            f"allowlisted {kind} that are now shipped or gone — delete the entries "
            f"and lower ALLOWLIST_BOUND: {sorted(set(have) - need)}"
        )
        for key, (reason, note) in have.items():
            assert reason in ALLOWLIST["reasons"], f"{key}: unknown reason {reason!r}"
            assert note.strip(), f"{key}: the note says what or who"
            assert reason != "next-sweep" or key in NEXT_SWEEP, (
                f"{key}: `next-sweep` is closed — new dead code is deleted, not parked")
    # What nothing at all calls is an interface stub or a guarded fault path.
    for key, value in CENSUS["functions"].items():
        if value == "none":
            assert ALLOWLIST["functions"][key][0] in ("interface", "fault-path"), key
    # An option nobody reads is not an option.
    assert [k for k, v in CENSUS["options"].items() if not v["read"]] == []


def test_the_allowlist_only_shrinks():
    size = len(ALLOWLIST["functions"]) + len(ALLOWLIST["options"])
    assert size <= ALLOWLIST_BOUND, (
        f"{size} allowlist entries > bound {ALLOWLIST_BOUND}: new code needs a shipped "
        f"caller, not a new reason"
    )


def test_qualnames_follow_co_firstlineno(tmp_path):
    """The ast walk keys a function by the line ``co_firstlineno`` reports
    (its first decorator) and tells a property's setter from its getter."""
    source = tmp_path / "sample.py"
    source.write_text(
        "import functools\n"
        "class A:\n"
        "    @property\n"
        "    def x(self): return 1\n"
        "    @x.setter\n"
        "    def x(self, v): pass\n"
        "    def m(self):\n"
        "        def inner(): pass\n"
        "        return inner\n"
        "@functools.lru_cache\n"
        "def f(): pass\n"
        "if True:\n"
        "    def f(): pass\n"
    )
    found = traffic_census.functions_in(source)
    assert found == {3: "A.x", 5: "A.x[setter]", 7: "A.m", 8: "A.m.<locals>.inner",
                     10: "f", 13: "f'"}
    namespace: dict = {}
    exec(compile(source.read_text(), str(source), "exec"), namespace)
    assert namespace["A"].x.fget.__code__.co_firstlineno == 3
    assert namespace["A"].x.fset.__code__.co_firstlineno == 5
