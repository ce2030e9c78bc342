"""Shared helpers for the benchmark harness.

Every experiment writes its formatted output (the reproduction of the
paper's table or figure) to ``benchmarks/results/<name>.txt`` *and* prints
it, so both ``pytest benchmarks/ --benchmark-only -s`` and the results
directory carry the numbers that EXPERIMENTS.md records.

:func:`emit_report` additionally persists :mod:`repro.trace` run reports
(``<name>.trace.json``), so BENCH_* artifacts carry a per-phase
breakdown — level / optimization / aggregation / sweep spans — instead
of a single end-to-end number.

:func:`flight_journal` tees a benchmark's tracers through a
:class:`~repro.obs.flight.FlightRecorder` journal in ``FLIGHT_DIR``,
where CI's failure bundle (``repro debug-bundle --flight-dir``) reads
the spans of a failed run.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Where benchmark tracers journal their spans (what CI's failure bundle reads).
FLIGHT_DIR = RESULTS_DIR / "flight"

__all__ = ["emit", "emit_report", "flight_journal", "FLIGHT_DIR", "RESULTS_DIR", "TRAJECTORY_PATH"]


def emit(name: str, text: str) -> Path:
    """Print ``text`` and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


@contextmanager
def flight_journal(flight_dir: str | Path = FLIGHT_DIR):
    """A :class:`~repro.obs.flight.FlightRecorder` journaling to ``flight_dir``.

    Pass it to ``Tracer(flight=...)``; every closed span is appended to
    ``flight-<pid>.jsonl`` there as it closes, so a crashed or failed
    run still leaves its spans behind.
    """
    from repro.obs.flight import FlightRecorder

    recorder = FlightRecorder(journal=Path(flight_dir) / f"flight-{os.getpid()}.jsonl")
    try:
        yield recorder
    finally:
        recorder.close()


TRAJECTORY_PATH = RESULTS_DIR / "BENCH_trajectory.json"


def emit_report(
    name: str, reports, *, meta: dict | None = None, trajectory: bool = False
) -> Path:
    """Persist one or more run reports as ``benchmarks/results/<name>.trace.json``.

    ``reports`` is a single :class:`repro.trace.RunReport` or a list of
    them; the file is a ``repro.trace/1`` container with a ``reports``
    array (the same per-report schema the ``--trace`` CLI flag writes).

    With ``trajectory=True``, every report that carries a graph name in
    its meta is also appended to the perf-trajectory store
    (``BENCH_trajectory.json``) so ``python -m repro trajectory`` and the
    regression gate can see the run; reports without a graph name are
    skipped (they cannot be keyed).
    """
    from repro.trace import TRACE_SCHEMA, RunReport

    if isinstance(reports, RunReport):
        reports = [reports]
    payload = {
        "schema": TRACE_SCHEMA,
        "meta": {"kind": "bench", "benchmark": name, **(meta or {})},
        "reports": [report.to_dict() for report in reports],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.trace.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[trace written to {path}]")
    if trajectory:
        from repro.obs import TrajectoryStore, current_commit, entry_from_report

        commit = current_commit()
        entries = [
            entry_from_report(report, commit=commit)
            for report in reports
            if report.meta.get("graph")
        ]
        if entries:
            total = TrajectoryStore(TRAJECTORY_PATH).append(entries)
            print(f"[{len(entries)} trajectory entries appended "
                  f"to {TRAJECTORY_PATH} ({total} total)]")
    return path
