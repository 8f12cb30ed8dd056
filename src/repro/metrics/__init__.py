"""Experiment metrics (M1-M6), harness, and figure/table renderers."""

from .harness import ExperimentResult, POLL_INTERVAL, run_experiment, run_round
from .metrics import SiteMeasurement, average_measurements, measure_site_cobrowsing
from .report import (
    bar,
    render_figure_m1_m2,
    render_figure_m3_m4,
    render_fleet_table,
    render_health_summary,
    render_shape_checks,
    render_table1,
    render_trace_summary,
)

__all__ = [
    "ExperimentResult",
    "POLL_INTERVAL",
    "SiteMeasurement",
    "average_measurements",
    "bar",
    "measure_site_cobrowsing",
    "render_figure_m1_m2",
    "render_figure_m3_m4",
    "render_fleet_table",
    "render_health_summary",
    "render_shape_checks",
    "render_table1",
    "render_trace_summary",
    "run_experiment",
    "run_round",
]
