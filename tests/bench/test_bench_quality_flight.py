"""The quality-bench CI job's benches leave their spans where a failure bundle finds them.

CI builds its quality-bench failure bundle with ``repro debug-bundle
--flight-dir benchmarks/results/flight``; ``bench_quality`` journals each
streaming scenario's session spans, and ``bench_stream`` each case's
session spans, into that directory through ``_util.flight_journal``
(here redirected to ``tmp_path``).
"""

import importlib.util
import json
import sys
import tarfile
from pathlib import Path

from repro.graph.generators import karate_club
from repro.obs.flight import build_debug_bundle, get_flight_recorder, set_flight_recorder

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_bench(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # the benches import _util
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    return bench


def _bundled_batch_spans(flight_dir):
    """The ``batch`` spans of a debug bundle built from ``flight_dir``'s journal."""
    # No live recorder in this process: the bundle must come from the journal.
    previous = get_flight_recorder()
    set_flight_recorder(None)
    try:
        manifest = build_debug_bundle(
            flight_dir / "bundle.tar.gz", flight_dir=flight_dir, trajectory=None
        )
    finally:
        set_flight_recorder(previous)
    assert "flight.json" in manifest["pieces"], manifest["errors"]
    with tarfile.open(manifest["path"]) as tar:
        flight = json.load(tar.extractfile("flight.json"))
    assert flight["source"] == "journal"
    return [e for e in flight["entries"] if e.get("name") == "batch"]


def test_quality_bench_journal_feeds_the_debug_bundle(tmp_path, monkeypatch):
    bench = _load_bench("bench_quality", monkeypatch)
    with bench.flight_journal(tmp_path) as recorder:
        row = bench.stream_scenario("karate", karate_club(), "louvain", recorder, batches=2)
    assert row["q_final"] > 0.0

    batches = _bundled_batch_spans(tmp_path)
    assert len(batches) == 2, "the bundle does not hold the scenario's batch spans"
    assert {e["trace_id"] for e in batches} == {"quality-karate-louvain"}


def test_stream_bench_journal_feeds_the_debug_bundle(tmp_path, monkeypatch):
    monkeypatch.delenv("BENCH_STREAM_ALGO", raising=False)
    bench = _load_bench("bench_stream", monkeypatch)
    with bench.flight_journal(tmp_path) as recorder:
        case = bench.stream_case("karate", karate_club(), recorder, batches=2)
    assert len(case["batches"]) == 2

    batches = _bundled_batch_spans(tmp_path)
    assert len(batches) == 2, "the bundle does not hold the case's batch spans"
    assert {e["trace_id"] for e in batches} == {"stream-karate-louvain"}
