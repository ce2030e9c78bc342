"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import karate_club
from repro.graph.io import read_edge_list, write_edge_list


@pytest.fixture
def karate_file(tmp_path):
    path = tmp_path / "karate.txt"
    write_edge_list(karate_club(), path)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(karate_file, capsys):
    assert main(["info", karate_file]) == 0
    out = capsys.readouterr().out
    assert "vertices:        34" in out
    assert "edges:           78" in out


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_detect_rejects_a_non_finite_weight(tmp_path, capsys, weight):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 1 {weight}\n1 2\n")
    assert main(["detect", str(path)]) != 0
    captured = capsys.readouterr()
    assert "modularity" not in captured.out
    assert f"error: {path}, line 1: edge weight must be finite" in captured.err


def test_detect_gpu(karate_file, capsys, tmp_path):
    out_path = tmp_path / "comms.txt"
    assert main(["detect", karate_file, "--solver", "gpu", "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "modularity:  0.4" in out
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 35  # header + 34 vertices
    vertex, community = lines[1].split()
    assert vertex == "0"


@pytest.mark.parametrize("solver", ["seq", "plm", "lu", "coarse", "sort"])
def test_detect_other_solvers(karate_file, capsys, solver):
    assert main(["detect", karate_file, "--solver", solver]) == 0
    out = capsys.readouterr().out
    assert f"solver:      {solver}" in out
    assert "modularity:" in out


def test_detect_multigpu(karate_file, capsys):
    assert main(["detect", karate_file, "--solver", "multigpu", "--devices", "2"]) == 0
    assert "communities:" in capsys.readouterr().out


def test_detect_levels_flag(karate_file, capsys):
    assert main(["detect", karate_file, "--levels"]) == 0
    assert "level 0: n=34" in capsys.readouterr().out


def test_detect_threshold_flags(karate_file, capsys):
    assert (
        main(
            [
                "detect", karate_file,
                "--threshold-bin", "1e-1",
                "--threshold-final", "1e-4",
                "--bin-vertex-limit", "10",
            ]
        )
        == 0
    )


@pytest.mark.parametrize(
    "family", ["social", "ba", "lfr", "caveman", "road", "delaunay",
               "stencil", "kkt", "karate", "rmat", "rgg"]
)
def test_generate_all_families(tmp_path, capsys, family):
    out = tmp_path / f"{family}.txt"
    assert main(["generate", family, "-n", "300", "-m", "4", "-o", str(out)]) == 0
    graph = read_edge_list(out)
    assert graph.num_vertices > 1
    assert graph.num_edges > 0


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["generate", "social", "-n", "200", "--seed", "5", "-o", str(a)])
    main(["generate", "social", "-n", "200", "--seed", "5", "-o", str(b)])
    assert a.read_text() == b.read_text()


def test_suite_list(capsys):
    assert main(["suite", "--list"]) == 0
    out = capsys.readouterr().out
    assert "uk-2002" in out
    assert "road_usa" in out
    assert out.count("\n") >= 56


def test_suite_materialise(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["suite", "--name", "com-dblp", "-o", str(out)]) == 0
    graph = read_edge_list(out)
    assert graph.num_vertices > 100


def test_suite_unknown_name():
    with pytest.raises(KeyError):
        main(["suite", "--name", "nope"])


def test_roundtrip_detect_generated(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    main(["generate", "caveman", "-n", "60", "-m", "6", "-o", str(graph_path)])
    capsys.readouterr()
    assert main(["detect", str(graph_path)]) == 0
    out = capsys.readouterr().out
    # caveman structure: high modularity
    q = float(next(l for l in out.splitlines() if "modularity" in l).split()[-1])
    assert q > 0.6


def test_detect_resolution_flag(karate_file, capsys):
    assert main(["detect", karate_file, "--resolution", "4.0"]) == 0
    out_fine = capsys.readouterr().out
    assert main(["detect", karate_file, "--resolution", "0.1"]) == 0
    out_coarse = capsys.readouterr().out
    fine = int(next(l for l in out_fine.splitlines() if "communities" in l).split()[-1])
    coarse = int(next(l for l in out_coarse.splitlines() if "communities" in l).split()[-1])
    assert fine >= coarse


def test_detect_warm_start_roundtrip(karate_file, capsys, tmp_path):
    membership_path = tmp_path / "m.txt"
    assert main(["detect", karate_file, "-o", str(membership_path)]) == 0
    capsys.readouterr()
    assert main(["detect", karate_file, "--warm-start", str(membership_path)]) == 0
    out = capsys.readouterr().out
    assert "modularity:  0.4" in out


def test_read_membership_validates_and_renumbers(tmp_path):
    import numpy as np

    from repro.cli import _read_membership

    path = tmp_path / "m.txt"
    # valid in-range labels pass through untouched (exact warm starts)
    path.write_text("# header\n0 2\n1 2\n2 0\n")
    np.testing.assert_array_equal(_read_membership(str(path), 4), [2, 2, 0, 3])
    # out-of-range labels renumber densely, preserving the partition
    path.write_text("0 100\n1 100\n2 -5\n3 7\n")
    renumbered = _read_membership(str(path), 4)
    assert renumbered[0] == renumbered[1]
    assert len({int(renumbered[0]), int(renumbered[2]), int(renumbered[3])}) == 3
    assert renumbered.min() >= 0 and renumbered.max() < 4
    # renumbering is deterministic
    np.testing.assert_array_equal(renumbered, _read_membership(str(path), 4))


def test_warm_start_renumbers_out_of_range_labels(karate_file, capsys, tmp_path):
    membership_path = tmp_path / "m.txt"
    assert main(["detect", karate_file, "-o", str(membership_path)]) == 0
    capsys.readouterr()
    assert main(["detect", karate_file, "--warm-start", str(membership_path)]) == 0
    baseline = capsys.readouterr().out
    # Shift every label by +100000: same partition, labels far outside
    # [0, n) — the boundary renumbers instead of crashing the engine.
    shifted = tmp_path / "shifted.txt"
    rows = [
        f"{line.split()[0]} {int(line.split()[1]) + 100000}"
        for line in membership_path.read_text().splitlines()
        if not line.startswith("#")
    ]
    shifted.write_text("\n".join(rows) + "\n")
    assert main(["detect", karate_file, "--warm-start", str(shifted)]) == 0
    out = capsys.readouterr().out
    # same partition in -> bit-identical clustering out
    q_line = next(l for l in baseline.splitlines() if "modularity" in l)
    assert q_line in out


def test_warm_start_rejects_bad_files(karate_file, capsys, tmp_path):
    cases = [
        ("999999 0\n", "vertex 999999 out of range"),
        ("0\n", "expected 'vertex community'"),
        ("0 notanumber\n", "expected integer"),
    ]
    for content, fragment in cases:
        bad = tmp_path / "bad.txt"
        bad.write_text(content)
        assert main(["detect", karate_file, "--warm-start", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert fragment in err
        assert "bad.txt:1" in err
    # the stream warm-start call site shares the same boundary
    bad = tmp_path / "bad.txt"
    bad.write_text("999999 0\n")
    assert main(
        ["stream", karate_file, "--synthetic", "4", "--batches", "1",
         "--warm-start", str(bad)]
    ) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["lpa", "leiden"])
def test_detect_algo_flag(karate_file, capsys, algo):
    assert main(["detect", karate_file, "--algo", algo]) == 0
    out = capsys.readouterr().out
    assert f"algo:        {algo}" in out
    assert "modularity:" in out


def test_detect_algo_louvain_output_unchanged(karate_file, capsys):
    assert main(["detect", karate_file]) == 0
    default = capsys.readouterr().out
    assert main(["detect", karate_file, "--algo", "louvain"]) == 0
    explicit = capsys.readouterr().out
    assert "algo:" not in default
    keep = lambda text: [l for l in text.splitlines() if "seconds" not in l]  # noqa: E731
    assert keep(default) == keep(explicit)


def test_stream_algo_flag(karate_file, capsys):
    assert main(
        ["stream", karate_file, "--synthetic", "8", "--batches", "2",
         "--seed", "1", "--algo", "leiden"]
    ) == 0
    out = capsys.readouterr().out
    assert "algo: leiden" in out
    assert "final:" in out


def test_main_module_help():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "detect" in result.stdout
    assert "generate" in result.stdout


def test_stream_synthetic(karate_file, capsys):
    assert main(
        ["stream", karate_file, "--synthetic", "8", "--batches", "3", "--seed", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "initial: n=34" in out
    assert "batch" in out and "frontier" in out
    assert "final:" in out
    # One table row per batch.
    assert sum(line.strip().startswith(("1 ", "2 ", "3 ")) for line in
               out.splitlines()) == 3


def test_stream_updates_file(karate_file, capsys, tmp_path):
    updates = tmp_path / "updates.txt"
    updates.write_text(
        "# two batches\n"
        "+ 0 9\n"
        "+ 4 12 2.5\n"
        "--\n"
        "- 0 9\n"
        "+ 20 25\n"
    )
    out_path = tmp_path / "final.txt"
    assert main(
        ["stream", karate_file, "--updates", str(updates), "-o", str(out_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "final:" in out
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 35  # header + 34 vertices
    # The streamed membership warm-starts a later detect run.
    assert main(["detect", karate_file, "--warm-start", str(out_path)]) == 0
    assert "modularity:" in capsys.readouterr().out


def test_stream_updates_file_rejects_bad_line(karate_file, tmp_path):
    updates = tmp_path / "updates.txt"
    updates.write_text("* 0 1\n")
    with pytest.raises(ValueError, match="updates.txt:1"):
        main(["stream", karate_file, "--updates", str(updates)])


def test_stream_exact_full_rerun_shows_no_gap(karate_file, capsys, tmp_path):
    updates = tmp_path / "updates.txt"
    updates.write_text("+ 0 9\n+ 4 12\n")
    assert main(
        [
            "stream", karate_file, "--updates", str(updates),
            "--screening", "exact", "--full-rerun-interval", "1",
            "--frontier-limit", "1.0",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "stream+full" in out
    assert "1.000" in out  # NMI vs the exact rerun
    assert "+0.00e+00" in out  # zero Q gap: exact mode == full pipeline


def test_stream_requires_update_source(karate_file):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stream", karate_file])


def test_detect_trace_report(karate_file, capsys, tmp_path):
    import json

    from repro.trace import TRACE_SCHEMA, validate_report

    trace_path = tmp_path / "trace.json"
    assert main(
        ["detect", karate_file, "--trace", str(trace_path), "--trace-summary"]
    ) == 0
    out = capsys.readouterr().out
    assert "opt ms" in out  # the summary table was printed
    data = json.loads(trace_path.read_text())
    assert data["schema"] == TRACE_SCHEMA
    assert validate_report(data) == []
    assert data["meta"]["kind"] == "run"
    assert data["meta"]["engine"] == "vectorized"
    run = data["spans"][0]
    assert run["name"] == "run"
    levels = [c for c in run["children"] if c["name"] == "level"]
    assert levels
    sweeps = [
        s
        for level in levels
        for opt in level["children"]
        if opt["name"] == "optimization"
        for s in opt["children"]
        if s["name"] == "sweep"
    ]
    assert sweeps and all("moved" in s["counters"] for s in sweeps)


@pytest.mark.parametrize("solver", ["seq", "plm", "lu", "coarse", "sort", "multigpu"])
def test_detect_trace_non_gpu_solver(solver, karate_file, tmp_path):
    import json

    from repro.trace import RunReport, validate_report

    trace_path = tmp_path / "trace.json"
    assert main(
        ["detect", karate_file, "--solver", solver, "--trace", str(trace_path)]
    ) == 0
    data = json.loads(trace_path.read_text())
    assert validate_report(data) == []
    assert data["meta"]["solver"] == solver
    # The solver records its levels live (multigpu nests its finishing run).
    (run,) = RunReport.from_dict(data).spans
    levels = [lv for lv in run.find("level") if not lv.attributes.get("degenerate")]
    assert len(levels) == data["result"]["num_levels"]
    for level in levels:
        assert [c.name for c in level.children] == ["optimization", "aggregation"]


def test_stream_trace_container(karate_file, capsys, tmp_path):
    import json

    from repro.trace import TRACE_SCHEMA, validate_report

    trace_path = tmp_path / "stream.json"
    assert main(
        [
            "stream", karate_file, "--synthetic", "8", "--batches", "2",
            "--seed", "1", "--trace", str(trace_path), "--trace-summary",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "--- batch 1" in out
    # The cross-batch aggregate footer (repro.obs.stream_aggregate).
    assert "stream aggregate: 2 batches" in out
    assert "frontier total" in out
    data = json.loads(trace_path.read_text())
    assert data["schema"] == TRACE_SCHEMA
    assert data["meta"]["kind"] == "stream"
    assert validate_report(data["initial"]) == []
    assert len(data["batches"]) == 2
    for i, report in enumerate(data["batches"], start=1):
        assert validate_report(report) == []
        assert report["meta"]["kind"] == "batch"
        assert report["result"]["batch"] == i


@pytest.fixture
def karate_trace(karate_file, tmp_path, capsys):
    """A traced detect run's JSON file path."""
    trace_path = tmp_path / "trace.json"
    assert main(["detect", karate_file, "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    return str(trace_path)


def test_trace_summary_verb(karate_trace, capsys):
    assert main(["trace-summary", karate_trace]) == 0
    out = capsys.readouterr().out
    assert "MTEPS" in out  # stage table
    assert "self" in out and "*" in out  # flame view with hot chain


def test_trace_summary_json(karate_trace, capsys):
    import json

    assert main(["trace-summary", karate_trace, "--json"]) == 0
    paths = {row["path"] for row in json.loads(capsys.readouterr().out)}
    assert "run" in paths
    assert "run/level[0]/optimization" in paths


def test_trace_diff_verb_exit_codes(karate_trace, capsys, tmp_path):
    import json

    assert main(["trace-diff", karate_trace, karate_trace]) == 0
    assert "verdict: ok" in capsys.readouterr().out

    data = json.loads(open(karate_trace).read())

    def find_opt(span):
        if span["name"] == "optimization":
            return span
        for child in span["children"]:
            found = find_opt(child)
            if found:
                return found

    find_opt(data["spans"][0])["seconds"] *= 10
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(data))
    assert main(["trace-diff", karate_trace, str(slow), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "regression"
    assert doc["regressions"] == ["run/level[0]/optimization"]


def test_trajectory_verb(tmp_path, capsys):
    from repro.obs import TrajectoryEntry, TrajectoryStore

    store_path = tmp_path / "traj.json"
    TrajectoryStore(store_path).append(
        [
            TrajectoryEntry(
                graph="karate", engine="vectorized", fingerprint="abc",
                commit="cafe123", timestamp=float(i),
                metrics={"optimization_seconds": 0.01 * i},
            )
            for i in (1, 2)
        ]
    )
    assert main(["trajectory", "--file", str(store_path), "--keys"]) == 0
    assert "karate [vectorized] abc" in capsys.readouterr().out
    assert main(
        ["trajectory", "--file", str(store_path), "--graph", "karate", "--last", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "cafe123" in out and "2.00x" in out
    assert main(["trajectory", "--file", str(tmp_path / "none.json")]) == 1
    assert main(
        ["trajectory", "--file", str(store_path), "--graph", "missing"]
    ) == 1


def test_bench_gate_verb_exit_codes(karate_trace, capsys, tmp_path):
    import json

    from repro.obs import TrajectoryStore, entry_from_report, load_trace

    # Seed a baseline from the real trace, then gate the same trace: ok.
    (report,) = load_trace(karate_trace)
    store_path = tmp_path / "traj.json"
    TrajectoryStore(store_path).append(entry_from_report(report, commit="base"))
    assert main(
        ["bench-gate", "--baseline", str(store_path), "--current", karate_trace]
    ) == 0
    assert "verdict: ok" in capsys.readouterr().out

    # Inflate every span 3x: the gate must fail with exit code 1.
    data = json.loads(open(karate_trace).read())

    def inflate(span):
        span["seconds"] *= 3
        for child in span["children"]:
            inflate(child)

    for span in data["spans"]:
        inflate(span)
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(data))
    assert main(
        ["bench-gate", "--baseline", str(store_path), "--current", str(slow),
         "--json"]
    ) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "regression"
    # detect --trace records the graph as its file path.
    assert any(r.endswith("/vectorized/total_seconds") for r in doc["regressions"])


def test_bench_gate_append_extends_baseline(karate_trace, capsys, tmp_path):
    from repro.obs import TrajectoryStore

    store_path = tmp_path / "traj.json"
    assert main(
        ["bench-gate", "--baseline", str(store_path), "--current", karate_trace,
         "--append"]
    ) == 0
    out = capsys.readouterr().out
    assert "new" in out  # no history yet: every check is new, gate passes
    assert len(TrajectoryStore(store_path).load()) == 1


def test_serve_parser_flags():
    args = build_parser().parse_args(
        ["serve", "--port", "0", "--max-sessions", "3", "--max-bytes",
         "1000000", "--snapshot-dir", "snaps", "--no-coalesce", "--no-trace"]
    )
    assert args.command == "serve"
    assert args.port == 0
    assert args.max_sessions == 3
    assert args.max_bytes == 1_000_000
    assert args.snapshot_dir == "snaps"
    assert args.no_coalesce is True
    assert args.no_trace is True
    defaults = build_parser().parse_args(["serve"])
    assert defaults.host == "127.0.0.1"
    assert defaults.port == 8077
    assert defaults.max_sessions == 8
    assert defaults.max_bytes is None
    assert defaults.no_coalesce is False
