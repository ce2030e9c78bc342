"""Tests for :class:`repro.stream.StreamSession` and the frontier optimizer.

The load-bearing properties (ISSUE satellite: hypothesis equivalence):

* ``screening="exact"`` is *bit-identical* to a full warm-started run —
  both at the single-level optimizer granularity and end-to-end through
  :meth:`StreamSession.apply`;
* the reported modularity of every batch matches an exact recompute on
  the updated graph to within 1e-9 (no silent drift);
* the guard rails (frontier-width fallback, periodic full re-runs,
  strict deletion semantics) engage as documented.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import GPULouvainConfig
from repro.core.gpu_louvain import gpu_louvain
from repro.core.mod_opt import (
    frontier_modularity_optimization,
    modularity_optimization,
)
from repro.graph.build import apply_edge_batch, from_edges
from repro.graph.generators import caveman
from repro.metrics.modularity import modularity
from repro.metrics.quality import normalized_mutual_information
from repro.stream import StreamConfig, StreamSession, delta_frontier

from ..conftest import csr_graphs

CFG = GPULouvainConfig()


@st.composite
def graphs_with_batches(draw, max_vertices: int = 16, max_edges: int = 40):
    """(graph, add, remove): a small graph plus a random edge batch.

    Additions are arbitrary unit-weight pairs (duplicates and existing
    edges allowed — they merge); removals pick existing non-loop edges,
    the only pairs that can legally be deleted.
    """
    graph = draw(csr_graphs(max_vertices=max_vertices, max_edges=max_edges))
    n = graph.num_vertices
    vertex = st.integers(min_value=0, max_value=n - 1)
    adds = draw(st.lists(st.tuples(vertex, vertex), min_size=0, max_size=8))
    pu, pv, _ = graph.edge_list()
    upper = (pu < pv) & (pu != pv)
    pu, pv = pu[upper], pv[upper]
    if pu.size:
        picks = draw(
            st.lists(
                st.integers(min_value=0, max_value=pu.size - 1),
                min_size=0,
                max_size=min(4, pu.size),
                unique=True,
            )
        )
    else:
        picks = []
    add = (
        (np.array([a for a, _ in adds]), np.array([b for _, b in adds]), None)
        if adds
        else None
    )
    remove = (pu[np.array(picks)], pv[np.array(picks)]) if picks else None
    return graph, add, remove


@settings(max_examples=60, deadline=None)
@given(graphs_with_batches())
def test_exact_screening_matches_full_warm_optimizer(case):
    """frontier_modularity_optimization(exact) ≡ modularity_optimization."""
    graph, add, remove = case
    m0 = gpu_louvain(graph, CFG).membership
    new_graph, du, dv, _ = apply_edge_batch(graph, add=add, remove=remove)
    frontier = delta_frontier(new_graph, m0, du, dv)
    threshold = CFG.threshold_for(new_graph.num_vertices)

    warm = modularity_optimization(
        new_graph, CFG, threshold, initial_communities=m0
    )
    fast = frontier_modularity_optimization(
        new_graph,
        CFG,
        threshold,
        initial_communities=m0,
        frontier=frontier,
        screening="exact",
    )
    assert np.array_equal(fast.communities, warm.communities)
    assert fast.sweeps == warm.sweeps
    assert fast.modularity == warm.modularity  # bit-identical float path


@settings(max_examples=40, deadline=None)
@given(graphs_with_batches())
def test_exact_session_matches_full_warm_pipeline(case):
    """StreamSession(screening="exact").apply ≡ warm-started gpu_louvain.

    Holds for non-empty batches only: an empty batch intentionally keeps
    the previous clustering (see test_empty_batch_keeps_clustering),
    whereas a warm *restart* of the full pipeline is not idempotent —
    rebuilding the hierarchy from a converged membership can coarsen
    further.
    """
    graph, add, remove = case
    assume(add is not None or remove is not None)
    session = StreamSession(graph, screening="exact", frontier_fraction_limit=1.0)
    m0 = session.membership.copy()
    result = session.apply(add=add, remove=remove)

    expected_graph, _, _, _ = apply_edge_batch(graph, add=add, remove=remove)
    full = gpu_louvain(expected_graph, CFG, initial_communities=m0)
    assert np.array_equal(result.membership, full.membership)
    assert result.modularity == full.modularity
    assert np.array_equal(session.membership, full.membership)
    # Observability: incremental Q never silently drifts from exact.
    drifts = [s.q_drift for level in result.sweep_stats for s in level]
    assert max((d for d in drifts if d is not None), default=0.0) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(graphs_with_batches(), st.sampled_from(["community", "endpoints"]))
def test_local_screening_reports_exact_modularity(case, scope):
    """Local mode may diverge from a full run, but its reported Q is an
    exact recompute of its own membership — drift ≤ 1e-9."""
    graph, add, remove = case
    session = StreamSession(
        graph, screening="local", frontier_scope=scope,
        frontier_fraction_limit=1.0,
    )
    result = session.apply(add=add, remove=remove)
    q_exact = modularity(
        session.graph, result.membership, resolution=CFG.resolution
    )
    assert result.modularity == pytest.approx(q_exact, abs=1e-9)
    assert result.membership.shape == (session.graph.num_vertices,)
    assert result.batch == 1


def test_local_screening_tracks_cold_run_on_caveman():
    graph, _ = caveman(8, 10)
    session = StreamSession(graph, frontier_scope="endpoints")
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = rng.integers(0, graph.num_vertices, 6)
        v = rng.integers(0, graph.num_vertices, 6)
        keep = u != v
        result = session.apply(add=(u[keep], v[keep], None))
    cold = gpu_louvain(session.graph, CFG)
    nmi = normalized_mutual_information(result.membership, cold.membership)
    assert nmi > 0.9
    assert result.mode == "stream"
    assert 0 < result.frontier_size < session.graph.num_vertices
    assert result.frontier_fraction < 1.0


def test_full_rerun_interval_reports_gap_and_resyncs():
    graph, _ = caveman(6, 8)
    session = StreamSession(
        graph,
        screening="exact",
        full_rerun_interval=2,
        frontier_fraction_limit=1.0,
    )
    first = session.apply(add=([0, 8], [9, 17], None))
    assert first.mode == "stream"
    assert first.q_full is None and first.nmi_vs_full is None
    second = session.apply(add=([1, 10], [12, 20], None))
    assert second.mode == "stream+full"
    assert second.full_rerun
    assert second.q_full is not None
    # Exact screening == full pipeline, so the audit shows no gap.
    assert second.nmi_vs_full == pytest.approx(1.0)
    assert second.q_full == second.modularity


def test_wide_frontier_falls_back_to_full_run():
    graph, _ = caveman(4, 6)
    session = StreamSession(graph, frontier_fraction_limit=0.05)
    result = session.apply(add=([0, 6, 12], [7, 13, 19], None))
    assert result.mode == "full"
    assert result.full_rerun
    assert result.frontier_fraction > 0.05
    q_exact = modularity(session.graph, result.membership)
    assert result.modularity == pytest.approx(q_exact, abs=1e-9)


def test_empty_batch_keeps_clustering():
    graph, _ = caveman(4, 5)
    session = StreamSession(graph)
    before = session.membership.copy()
    result = session.apply()
    assert result.batch == 1
    assert result.edges_added == 0 and result.edges_removed == 0
    assert result.pairs_changed == 0
    assert np.array_equal(result.membership, before)
    assert result.modularity == session.modularity


def test_removing_every_edge_yields_zero_modularity():
    # Regression: the local-mode exact-Q recompute divided by 2m == 0.
    graph = from_edges([0, 1], [1, 2])
    session = StreamSession(graph, frontier_fraction_limit=1.0)
    result = session.apply(remove=([0, 1], [1, 2]))
    assert session.graph.num_edges == 0
    assert result.modularity == 0.0


def test_removing_nonexistent_edge_raises_and_preserves_state():
    graph, _ = caveman(4, 5)
    session = StreamSession(graph)
    membership = session.membership.copy()
    with pytest.raises(ValueError, match="non-existent edge"):
        session.apply(remove=([0], [12]))
    assert session.batches == 0
    assert session.graph is graph
    assert np.array_equal(session.membership, membership)


def test_initial_membership_warm_starts_first_clustering():
    graph, truth = caveman(8, 10)
    session = StreamSession(graph, initial_membership=truth)
    cold = gpu_louvain(graph, CFG)
    assert session.modularity == pytest.approx(cold.modularity, abs=1e-6)


def test_batch_accounting_fields():
    graph, _ = caveman(4, 6)
    session = StreamSession(graph, frontier_fraction_limit=1.0)
    result = session.apply(add=([0, 0, 6], [7, 7, 0], None), remove=([1], [2]))
    # (0,7) named twice and (6,0) once -> 2 distinct added pairs.
    assert result.edges_added == 2
    assert result.edges_removed == 1
    assert result.pairs_changed == 3
    assert result.batch == 1
    assert result.seconds > 0.0


def test_stream_config_validation():
    with pytest.raises(ValueError, match="screening"):
        StreamConfig(screening="fuzzy")
    with pytest.raises(ValueError, match="frontier scope"):
        StreamConfig(frontier_scope="galaxy")
    with pytest.raises(ValueError, match="full_rerun_interval"):
        StreamConfig(full_rerun_interval=-1)
    with pytest.raises(ValueError, match="frontier_fraction_limit"):
        StreamConfig(frontier_fraction_limit=0.0)
    with pytest.raises(ValueError, match="vectorized"):
        StreamConfig(louvain=GPULouvainConfig(engine="simulated"))
    with pytest.raises(ValueError, match="relaxed_updates"):
        StreamConfig(louvain=GPULouvainConfig(relaxed_updates=True))


def test_session_rejects_config_plus_overrides():
    graph, _ = caveman(3, 4)
    with pytest.raises(TypeError, match="not both"):
        StreamSession(graph, StreamConfig(), screening="exact")
    with pytest.raises(TypeError, match="not both"):
        StreamSession(graph, louvain=GPULouvainConfig(), resolution=1.5)


def test_frontier_optimizer_validation():
    graph, _ = caveman(3, 4)
    m0 = np.zeros(graph.num_vertices, dtype=np.int64)
    threshold = CFG.threshold_for(graph.num_vertices)
    with pytest.raises(ValueError, match="vectorized"):
        frontier_modularity_optimization(
            graph,
            GPULouvainConfig(engine="simulated"),
            threshold,
            initial_communities=m0,
            frontier=np.array([0]),
        )
    with pytest.raises(ValueError, match="per-bucket commit discipline"):
        frontier_modularity_optimization(
            graph,
            GPULouvainConfig(relaxed_updates=True),
            threshold,
            initial_communities=m0,
            frontier=np.array([0]),
        )
    with pytest.raises(ValueError, match="screening"):
        frontier_modularity_optimization(
            graph, CFG, threshold,
            initial_communities=m0, frontier=np.array([0]), screening="fuzzy",
        )
    with pytest.raises(ValueError, match="expansion"):
        frontier_modularity_optimization(
            graph, CFG, threshold,
            initial_communities=m0, frontier=np.array([0]), expansion="cosmic",
        )
    with pytest.raises(ValueError, match="out of range"):
        frontier_modularity_optimization(
            graph, CFG, threshold,
            initial_communities=m0, frontier=np.array([10_000]),
        )


def test_empty_frontier_is_a_noop():
    graph, truth = caveman(4, 5)
    m0 = gpu_louvain(graph, CFG).membership
    out = frontier_modularity_optimization(
        graph,
        CFG,
        CFG.threshold_for(graph.num_vertices),
        initial_communities=m0,
        frontier=np.empty(0, dtype=np.int64),
    )
    assert np.array_equal(out.communities, m0)
    assert out.frontier_initial == 0
    assert out.scored_total == 0


def test_sweep_stats_expose_frontier_size():
    graph, _ = caveman(6, 8)
    session = StreamSession(graph, frontier_fraction_limit=1.0)
    result = session.apply(add=([0, 10], [9, 20], None))
    level0 = result.sweep_stats[0]
    assert level0
    assert all(s.frontier_size >= 0 for s in level0)
    assert level0[0].frontier_size > 0


def test_batch_reports_carry_the_config_metadata_computed_once():
    from unittest import mock

    from repro.trace import Tracer

    graph, _ = caveman(6, 8)
    config = StreamConfig(screening="exact")
    with mock.patch.object(
        StreamConfig, "to_meta", autospec=True, side_effect=StreamConfig.to_meta
    ) as to_meta:
        session = StreamSession(graph, config, tracer=Tracer())
        for step in range(3):
            session.apply(add=(np.array([step]), np.array([step + 20]), None))
    # The fingerprint hashes to_meta() too: one call for each, per session.
    assert to_meta.call_count == 2
    for report in [session.initial_report, *session.reports]:
        assert report.meta["config"] == config.to_meta()
        assert report.meta["fingerprint"] == config.fingerprint()
