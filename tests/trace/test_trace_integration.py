"""End-to-end tracing through the solvers and the streaming session."""

import numpy as np
import pytest

from repro.core.gpu_louvain import gpu_louvain
from repro.graph.generators import karate_club, planted_partition
from repro.obs.analyze import stage_table
from repro.stream import StreamSession
from repro.trace import Tracer, report_from_result, validate_report


@pytest.fixture(scope="module")
def medium_graph():
    graph, _ = planted_partition(12, 25, p_in=0.6, p_out=0.02, rng=3)
    return graph


def test_vectorized_run_span_tree(medium_graph):
    tracer = Tracer()
    result = gpu_louvain(medium_graph, tracer=tracer)
    assert len(tracer.roots) == 1
    run = tracer.roots[0]
    assert run.name == "run"
    assert run.attributes["engine"] == "vectorized"
    assert run.counters["modularity"] == pytest.approx(result.modularity)
    assert run.counters["num_levels"] == result.num_levels

    levels = run.find("level")
    assert len(levels) >= result.num_levels
    non_degenerate = [
        lv for lv in levels if not lv.attributes.get("degenerate")
    ]
    assert len(non_degenerate) == result.num_levels
    for expected_sweeps, level in zip(result.sweeps_per_level, non_degenerate):
        assert level.counters["sweeps"] == expected_sweeps
        opts = level.find("optimization")
        aggs = level.find("aggregation")
        assert len(opts) == 1 and len(aggs) == 1
        assert opts[0].counters["sweeps"] == expected_sweeps
        sweeps = opts[0].find("sweep")
        assert len(sweeps) == expected_sweeps
        for sweep in sweeps:
            assert {"moved", "gather_reuse_hits", "q_incremental"} <= set(
                sweep.counters
            )
        assert aggs[0].attributes["path"] in ("bucketed", "bincount")
        assert aggs[0].counters["num_vertices_out"] >= 1


def test_simulated_run_span_tree():
    tracer = Tracer()
    result = gpu_louvain(karate_club(), engine="simulated", tracer=tracer)
    run = tracer.roots[0]
    assert run.attributes["engine"] == "simulated"
    aggs = run.find("aggregation")
    assert aggs
    # The simulated engine's hash-kernel probes surface as counters.
    assert any(a.counters.get("hash_probes", 0) > 0 for a in aggs)
    assert run.counters["modularity"] == pytest.approx(result.modularity)


@pytest.mark.parametrize("engine", ["vectorized", "simulated"])
def test_tracing_is_bit_identical(engine):
    graph = karate_club()
    plain = gpu_louvain(graph, engine=engine)
    traced = gpu_louvain(graph, engine=engine, tracer=Tracer())
    assert np.array_equal(plain.membership, traced.membership)
    assert plain.modularity == traced.modularity
    assert plain.modularity_per_level == traced.modularity_per_level
    assert plain.sweeps_per_level == traced.sweeps_per_level


def test_report_from_live_tracer(medium_graph):
    tracer = Tracer()
    result = gpu_louvain(medium_graph, tracer=tracer)
    report = report_from_result(result, tracer=tracer, engine="vectorized")
    assert validate_report(report.to_dict()) == []
    assert report.meta["kind"] == "run"
    assert report.result["modularity"] == result.modularity
    assert report.spans[0].name == "run"
    assert "level" in stage_table(report)


def test_report_without_spans_raises(medium_graph):
    # The span tree is the one record of per-level time: a report needs
    # the spans (or the tracer that recorded them), never a reconstruction.
    result = gpu_louvain(medium_graph)
    with pytest.raises(ValueError, match="spans"):
        report_from_result(result, solver="gpu")
    with pytest.raises(ValueError, match="spans"):
        report_from_result(result, tracer=Tracer(), solver="gpu")


def test_stream_session_reports(medium_graph):
    rng = np.random.default_rng(5)
    tracer = Tracer()
    session = StreamSession(medium_graph, tracer=tracer)

    assert session.initial_report is not None
    initial = session.initial_report
    assert initial.meta["kind"] == "run"
    assert initial.meta["initial"] is True
    assert validate_report(initial.to_dict()) == []

    n = medium_graph.num_vertices
    for _ in range(2):
        u = rng.integers(0, n, 8)
        v = (u + rng.integers(1, n, 8)) % n
        session.apply(add=(u, v, None))

    assert len(session.reports) == 2
    for batch_index, report in enumerate(session.reports, start=1):
        assert validate_report(report.to_dict()) == []
        assert report.meta["kind"] == "batch"
        assert report.result["batch"] == batch_index
        assert report.result["mode"] in ("incremental", "full")
        batch_span = report.spans[0]
        assert batch_span.name == "batch"
        assert batch_span.counters["edges_added"] == report.result["edges_added"]
        assert batch_span.counters["modularity"] == pytest.approx(
            report.result["modularity"]
        )


def test_stream_without_tracer_has_no_reports(medium_graph):
    session = StreamSession(medium_graph)
    assert session.initial_report is None
    n = medium_graph.num_vertices
    session.apply(add=(np.array([0, 1]), np.array([n - 1, n - 2]), None))
    assert session.reports == []
