"""Tests for the experiment runner and reporting helpers."""

import pytest

from repro.bench.reporting import banner, format_series, format_table, geometric_mean
from repro.bench.runner import (
    run_gpu,
    run_sequential,
    table1_rows,
    threshold_grid,
    timed,
)
from repro.bench.suite import SUITE
from repro.graph.generators import karate_club, lfr_like
from repro.obs.analyze import level_metrics
from repro.trace import RunReport, Tracer


def test_timed_returns_result_and_seconds():
    from repro.seq.louvain import louvain

    g = karate_club()
    result, seconds = timed(lambda: louvain(g))
    assert seconds > 0
    assert result.modularity > 0.3


def test_run_gpu_and_sequential_agree_roughly():
    g, _ = lfr_like(400, rng=0)
    gpu = run_gpu(g)
    seq = run_sequential(g)
    assert gpu.modularity > 0.9 * seq.modularity
    assert gpu.name == "gpu"
    assert seq.name == "seq"


def test_run_sequential_adaptive_name():
    g = karate_club()
    assert run_sequential(g, adaptive=True).name == "seq-adaptive"


def test_table1_rows_subset():
    entries = [SUITE[43]]  # com-dblp, small
    rows = table1_rows(entries)
    assert len(rows) == 1
    row = rows[0]
    assert row.entry.name == "com-dblp"
    assert row.speedup > 0
    assert 0.8 < row.relative_modularity <= 1.1
    assert row.num_vertices > 0
    # Rows carry the full solver results and their runs' span trees so
    # benchmarks can emit traces.
    assert row.gpu_result is not None
    assert row.gpu_result.modularity == pytest.approx(row.gpu_modularity)
    assert row.seq_result is not None
    assert row.seq_result.modularity == pytest.approx(row.seq_modularity)
    assert row.gpu_spans[0].find("level") and row.seq_spans[0].find("level")


def test_suite_report_is_traced_and_keyed():
    from repro.bench.runner import SUITE_GPU_DEFAULTS, suite_report
    from repro.bench.suite import suite_entry
    from repro.trace import validate_report

    report = suite_report(suite_entry("com-dblp"), scale=0.5)
    assert validate_report(report.to_dict()) == []
    meta = report.meta
    assert meta["graph"] == "com-dblp"
    assert meta["engine"] == "vectorized"
    assert meta["scale"] == 0.5
    for key, value in SUITE_GPU_DEFAULTS.items():
        assert meta[key] == value
    # Live spans: sweep children exist.
    assert report.spans[0].find("sweep")


def test_threshold_grid_shape_and_ordering():
    entries = [SUITE[43]]
    cells = threshold_grid(entries, [1e-1, 1e-3], [1e-3, 1e-5])
    # t_final > t_bin combinations dropped: (1e-3, 1e-3) kept? equal allowed
    assert all(c.threshold_final <= c.threshold_bin for c in cells)
    assert len(cells) == 4
    for cell in cells:
        assert 0.5 < cell.mean_relative_modularity <= 1.1
        assert cell.mean_seconds > 0
        assert len(cell.per_graph_seconds) == 1


@pytest.mark.parametrize("runner", [run_gpu, run_sequential], ids=["gpu", "seq"])
def test_level_metrics_on_traced_runs(runner):
    g, _ = lfr_like(300, rng=1)
    tracer = Tracer()
    run = runner(g, tracer=tracer)
    rows = [
        row
        for row in level_metrics(RunReport(spans=tracer.roots))
        if row.modularity is not None  # degenerate levels record no Q
    ]
    assert len(rows) == run.levels
    assert rows[0].num_vertices == g.num_vertices
    assert all(r.optimization_seconds >= 0 for r in rows)
    assert rows[-1].modularity == pytest.approx(run.modularity, abs=1e-9)


def test_banner():
    text = banner("Hello")
    assert "Hello" in text
    assert text.count("=") >= 10


def test_format_table_alignment():
    table = format_table(["name", "x"], [["abc", 1.5], ["de", 22.25]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "abc" in lines[2]
    assert "22.250" in lines[3]


def test_format_table_floatfmt():
    table = format_table(["x"], [[1.23456]], floatfmt=".1f")
    assert "1.2" in table


def test_format_series():
    text = format_series("speedup", ["a", "b"], [1.0, 2.0])
    assert "series speedup:" in text
    assert "a = 1.0000" in text


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([2.0, 0.0, 8.0]) == pytest.approx(4.0)  # zeros skipped


def test_table1_rows_adaptive_variant():
    entries = [SUITE[43]]  # com-dblp
    rows = table1_rows(entries, adaptive_seq=True)
    assert len(rows) == 1
    assert rows[0].seq_seconds > 0


def test_run_gpu_overrides_passthrough():
    g = karate_club()
    run = run_gpu(g, engine="simulated")
    assert run.result.profile is not None


def test_threshold_grid_drops_inverted_cells():
    entries = [SUITE[43]]
    cells = threshold_grid(entries, [1e-3], [1e-1, 1e-4])
    # t_final=1e-1 > t_bin=1e-3 must be dropped
    assert len(cells) == 1
    assert cells[0].threshold_final == 1e-4
