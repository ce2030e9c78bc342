"""A shard-bench run leaves its spans where a failure bundle finds them.

CI builds its shard-bench failure bundle with ``repro debug-bundle
--flight-dir benchmarks/results/flight``; ``run_bench`` journals its
tracers' spans into that directory (here redirected to ``tmp_path``).
"""

import importlib.util
import json
import sys
import tarfile
from pathlib import Path

from repro.obs.flight import build_debug_bundle, get_flight_recorder, set_flight_recorder

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def test_bench_shard_journal_feeds_the_debug_bundle(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # bench_shard imports _util
    spec = importlib.util.spec_from_file_location("bench_shard", BENCHMARKS / "bench_shard.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)

    outcome = bench.run_bench(
        workers=[2], scale=0.25, pool="inline", repeat=1,
        graphs=("uk-2002",), flight_dir=tmp_path, progress=lambda *_: None,
    )
    assert outcome["ok"]

    # No live recorder in this process: the bundle must come from the journal.
    previous = get_flight_recorder()
    set_flight_recorder(None)
    try:
        manifest = build_debug_bundle(
            tmp_path / "bundle.tar.gz", flight_dir=tmp_path, trajectory=None
        )
    finally:
        set_flight_recorder(previous)
    assert "flight.json" in manifest["pieces"], manifest["errors"]
    with tarfile.open(manifest["path"]) as tar:
        flight = json.load(tar.extractfile("flight.json"))
    assert flight["source"] == "journal"
    shards = [e for e in flight["entries"] if e.get("name") == "shard"]
    assert shards, "the bundle holds no shard spans"
    assert {e["trace_id"] for e in shards} == {"shard-uk-2002-w2-r0"}
