"""Closed-form analysis and reporting for the paper's figures and tables."""

from repro.analysis.estimation_math import (
    loss_detection_bound,
    nsl_stddev,
    nsl_stddev_after_probes,
    table2_rows,
    worst_case_detection_time,
)
from repro.analysis.heartbeat_math import (
    fixed_heartbeat_count,
    fixed_rate,
    overhead_ratio,
    table1_rows,
    variable_heartbeat_count,
    variable_rate,
)
from repro.analysis.metrics_report import render_json, render_text, snapshot_with_trace
from repro.analysis.report import format_series, format_table

__all__ = [
    "loss_detection_bound",
    "nsl_stddev",
    "nsl_stddev_after_probes",
    "table2_rows",
    "worst_case_detection_time",
    "fixed_heartbeat_count",
    "fixed_rate",
    "overhead_ratio",
    "table1_rows",
    "variable_heartbeat_count",
    "variable_rate",
    "format_series",
    "format_table",
    "render_json",
    "render_text",
    "snapshot_with_trace",
]
