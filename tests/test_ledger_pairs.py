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
