"""Observability analytics over ``repro.trace/1`` reports.

PR 3 made every engine *emit* span trees; this package *consumes* them:

* :mod:`repro.obs.analyze` — per-span-path aggregates, the Fig. 5/6
  stage-breakdown table with derived rates (per-level MTEPS, moves per
  sweep, hash-probe rate, frontier fraction), and a text critical-path
  / flame view;
* :mod:`repro.obs.diff` — structural diff of two traced runs matched by
  span path, with a slowdown threshold and machine-readable verdict;
* :mod:`repro.obs.trajectory` — the append-only perf-trajectory store
  (``BENCH_trajectory.json``) keyed by (graph, engine, config
  fingerprint, commit);
* :mod:`repro.obs.gate` — the regression gate CI runs via
  ``python -m repro bench-gate``;
* :mod:`repro.obs.metrics` — the *runtime* half: a dependency-free
  Prometheus-style registry (counters / gauges / histograms) the serve,
  stream and gpu layers record into, exposed as
  ``GET /v1/metrics``;
* :mod:`repro.obs.logs` — structured JSON logging (``repro.log/1``)
  with per-request/per-batch correlation ids tying log lines to trace
  span paths;
* :mod:`repro.obs.flight` — the always-on flight recorder
  (``repro.flight/1``): a byte-budgeted ring of recent spans / log
  lines / metric deltas with crash-surviving journals, a stall
  watchdog, and ``repro debug-bundle`` tarballs.

CLI verbs: ``repro trace-summary``, ``repro trace-diff``,
``repro trajectory``, ``repro bench-gate``.
"""

from .logs import (
    LOG_SCHEMA,
    NULL_LOGGER,
    StructuredLogger,
    correlation,
    current_correlation_id,
    new_correlation_id,
    validate_log_line,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
)
from .flight import (
    FLIGHT_SCHEMA,
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    Watchdog,
    build_debug_bundle,
    get_flight_recorder,
    load_journal,
    set_flight_recorder,
    stitch_spans,
    validate_flight,
)
from .analyze import (
    LevelMetrics,
    PathAggregate,
    critical_path,
    critical_path_spans,
    flatten_report,
    flatten_reports,
    format_stream_aggregate,
    level_metrics,
    load_trace,
    span_component,
    stage_table,
    stream_aggregate,
)
from .diff import PathDelta, TraceDiff, diff_reports
from .gate import (
    DEFAULT_METRICS,
    GateCheck,
    GateResult,
    evaluate_gate,
    run_gate_entries,
)
from .trajectory import (
    TRAJECTORY_SCHEMA,
    TrajectoryEntry,
    TrajectoryStore,
    config_fingerprint,
    current_commit,
    entry_from_report,
    fingerprint,
)

__all__ = [
    # metrics
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    # logs
    "LOG_SCHEMA",
    "StructuredLogger",
    "NULL_LOGGER",
    "correlation",
    "current_correlation_id",
    "new_correlation_id",
    "validate_log_line",
    # flight
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "get_flight_recorder",
    "set_flight_recorder",
    "validate_flight",
    "load_journal",
    "stitch_spans",
    "Watchdog",
    "build_debug_bundle",
    # analyze
    "PathAggregate",
    "span_component",
    "flatten_report",
    "flatten_reports",
    "LevelMetrics",
    "level_metrics",
    "stage_table",
    "critical_path",
    "critical_path_spans",
    "load_trace",
    "stream_aggregate",
    "format_stream_aggregate",
    # diff
    "PathDelta",
    "TraceDiff",
    "diff_reports",
    # trajectory
    "TRAJECTORY_SCHEMA",
    "TrajectoryEntry",
    "TrajectoryStore",
    "fingerprint",
    "config_fingerprint",
    "entry_from_report",
    "current_commit",
    # gate
    "DEFAULT_METRICS",
    "GateCheck",
    "GateResult",
    "evaluate_gate",
    "run_gate_entries",
]
