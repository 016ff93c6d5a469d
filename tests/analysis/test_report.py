"""ASCII report renderer tests."""

from __future__ import annotations

from repro.analysis.report import format_series, format_table


def test_table_alignment_and_rule():
    out = format_table(["name", "value"], [("alpha", 1), ("b", 123456)])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
    widths = {len(l) for l in lines}
    assert len(widths) == 1  # all rows equally wide


def test_float_rendering():
    out = format_table(["x"], [(53.3333333,), (0.0001234,), (float("nan"),)])
    assert "53.333" in out
    assert "0.000123" in out
    assert "nan" in out


def test_series():
    out = format_series("Figure 4", [1, 2], [4.0, 2.0], x_label="dt", y_label="rate")
    assert out.startswith("# Figure 4")
    assert "dt" in out and "rate" in out
