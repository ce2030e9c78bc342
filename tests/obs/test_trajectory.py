"""The append-only perf-trajectory store and its fingerprints."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    TRAJECTORY_SCHEMA,
    TrajectoryEntry,
    TrajectoryStore,
    config_fingerprint,
    entry_from_report,
    fingerprint,
)


def _entry(graph="g", engine="vectorized", fp="abc", metric=1.0, ts=0.0):
    return TrajectoryEntry(
        graph=graph,
        engine=engine,
        fingerprint=fp,
        commit="deadbee",
        timestamp=ts,
        metrics={"optimization_seconds": metric, "total_seconds": metric * 2},
    )


def test_fingerprint_is_order_independent():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})
    assert len(fingerprint({})) == 12


def test_config_fingerprint_accepts_dict_and_dataclass():
    from repro.core.config import GPULouvainConfig

    by_dict = config_fingerprint({"threshold_bin": 1e-2})
    assert by_dict == config_fingerprint(threshold_bin=1e-2)
    cfg = GPULouvainConfig()
    assert config_fingerprint(cfg) == config_fingerprint(cfg)
    # Keyword overrides change the digest.
    assert config_fingerprint(cfg, scale=2.0) != config_fingerprint(cfg)
    with pytest.raises(TypeError):
        config_fingerprint(object())


def test_entry_from_report_defaults_from_meta(karate_report):
    entry = entry_from_report(karate_report, commit="cafe123", timestamp=42.0)
    assert entry.graph == "karate"
    assert entry.engine == "vectorized"
    assert entry.commit == "cafe123"
    assert entry.timestamp == 42.0
    assert entry.metrics["total_seconds"] > 0
    assert entry.metrics["optimization_seconds"] > 0
    assert entry.metrics["modularity"] == pytest.approx(
        karate_report.result["modularity"]
    )
    assert entry.metrics["level0_mteps"] > 0


def test_entry_fingerprint_ignores_volatile_meta(karate_report):
    a = entry_from_report(karate_report, commit="a", timestamp=1.0)
    drifted = type(karate_report)(
        meta={**karate_report.meta, "seconds": 99.9, "timestamp": 123.0},
        result=karate_report.result,
        spans=karate_report.spans,
    )
    b = entry_from_report(drifted, commit="b", timestamp=2.0)
    assert a.fingerprint == b.fingerprint
    # A config-meta change is a different key.
    changed = type(karate_report)(
        meta={**karate_report.meta, "threshold_bin": 0.5},
        result=karate_report.result,
        spans=karate_report.spans,
    )
    assert entry_from_report(changed).fingerprint != a.fingerprint


def test_entry_from_report_requires_graph(make_report):
    with pytest.raises(ValueError, match="graph"):
        entry_from_report(make_report())
    entry = entry_from_report(make_report(), graph="g", engine="e")
    assert entry.key == ("g", "e", entry.fingerprint)


def test_store_append_and_load_roundtrip(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.json")
    assert store.load() == []
    assert store.append(_entry(ts=1.0)) == 1
    assert store.append([_entry(ts=2.0), _entry(graph="h", ts=3.0)]) == 3
    entries = store.load()
    assert [e.timestamp for e in entries] == [1.0, 2.0, 3.0]
    assert entries[0] == _entry(ts=1.0)
    # The file is strict JSON with the schema marker.
    data = json.loads((tmp_path / "traj.json").read_text())
    assert data["schema"] == TRAJECTORY_SCHEMA


def test_store_rejects_foreign_schema(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text('{"schema": "something-else/1", "entries": []}')
    with pytest.raises(ValueError, match="schema"):
        TrajectoryStore(path).load()


def test_series_filters_and_truncates(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.json")
    store.append([_entry(metric=float(i), ts=float(i)) for i in range(1, 6)])
    store.append(_entry(graph="other", metric=99.0))

    rows = store.series(graph="g", metric="optimization_seconds")
    assert [v for _, v in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
    last = store.series(graph="g", metric="optimization_seconds", last=2)
    assert [v for _, v in last] == [4.0, 5.0]
    assert store.series(graph="missing") == []
    # Entries without the metric are skipped, not crashed on.
    assert store.series(graph="g", metric="nonexistent") == []


def test_keys_and_latest(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.json")
    store.append([_entry(ts=1.0), _entry(ts=2.0), _entry(graph="h", ts=3.0)])
    assert store.keys() == [("g", "vectorized", "abc"), ("h", "vectorized", "abc")]
    latest = store.latest()
    assert latest[("g", "vectorized", "abc")].timestamp == 2.0


def test_level0_mteps_keeps_the_first_level_zero(tmp_path):
    """A multigpu trace holds the device phase's level 0 and, later in
    tree order, the nested finishing run's level 0: the metric is the
    first one's."""
    from repro.cli import main
    from repro.obs.trajectory import _report_metrics
    from repro.trace import RunReport

    graph_path = tmp_path / "g.txt"
    trace_path = tmp_path / "trace.json"
    assert main(["generate", "social", "-n", "600", "-m", "6", "-o", str(graph_path)]) == 0
    assert main(
        ["detect", str(graph_path), "--solver", "multigpu", "--trace", str(trace_path)]
    ) == 0
    report = RunReport.from_dict(json.loads(trace_path.read_text()))

    def mteps(level):
        opt = next(c for c in level.children if c.name == "optimization")
        edges = level.attributes["num_edges"]
        return 2.0 * edges * opt.counters["sweeps"] / opt.seconds / 1e6

    zeros = [
        level
        for root in report.spans
        for level in root.find("level")
        if level.attributes.get("level") == 0
    ]
    assert len(zeros) >= 2
    assert mteps(zeros[0]) != mteps(zeros[-1])
    assert _report_metrics(report)["level0_mteps"] == mteps(zeros[0])
