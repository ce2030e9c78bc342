"""Benchmark suite (Table-1 analogs), experiment runner, and reporting."""

from .reporting import banner, format_series, format_table, geometric_mean
from .runner import (
    SolverRun,
    Table1Row,
    ThresholdCell,
    run_gpu,
    run_sequential,
    table1_rows,
    threshold_grid,
    timed,
)
from .suite import SUITE, SuiteEntry, load_suite_graph, small_suite, suite_names

__all__ = [
    "SUITE",
    "SuiteEntry",
    "suite_names",
    "load_suite_graph",
    "small_suite",
    "timed",
    "SolverRun",
    "run_gpu",
    "run_sequential",
    "Table1Row",
    "table1_rows",
    "ThresholdCell",
    "threshold_grid",
    "banner",
    "format_table",
    "format_series",
    "geometric_mean",
]
