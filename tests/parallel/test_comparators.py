"""Tests for the comparator Louvain implementations."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph.build import from_edges
from repro.graph.generators import caveman, lfr_like
from repro.metrics.modularity import modularity
from repro.metrics.quality import adjusted_rand_index
from repro.parallel.chunked import chunked_one_level
from repro.parallel.coarse import coarse_louvain, random_parts
from repro.parallel.lu_openmp import lu_louvain, lu_one_level
from repro.parallel.plm import plm_louvain
from repro.parallel.sortbased import sort_based_louvain
from repro.parallel.vector_aggregate import aggregate_vectorized
from repro.seq.aggregation import aggregate as seq_aggregate
from repro.seq.louvain import louvain as seq_louvain

from ..conftest import graphs_with_partitions

ALL_SOLVERS = [plm_louvain, lu_louvain, coarse_louvain, sort_based_louvain]


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_result_consistency_karate(solver, karate):
    result = solver(karate)
    assert result.membership.shape == (34,)
    assert modularity(karate, result.membership) == pytest.approx(result.modularity)
    assert result.modularity > 0.3


@pytest.mark.parametrize(
    "solver", [plm_louvain, coarse_louvain, sort_based_louvain]
)
def test_caveman_recovery(solver):
    g, truth = caveman(6, 8)
    result = solver(g)
    assert adjusted_rand_index(result.membership, truth) > 0.9


def test_lu_caveman_partial_recovery():
    """Lu's coloring processes all cave heads before any cave has formed,
    so the head-to-head ring edges chain neighbouring caves together —
    an artefact of the color-class ordering on this pathologically
    symmetric graph.  Quality degrades but must stay in Louvain range."""
    g, truth = caveman(6, 8)
    result = lu_louvain(g)
    assert adjusted_rand_index(result.membership, truth) > 0.5
    assert result.modularity > 0.6


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_deterministic(solver, karate):
    a = solver(karate)
    b = solver(karate)
    assert np.array_equal(a.membership, b.membership)


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_quality_near_sequential(solver):
    """All comparators land within a few percent of the sequential Q."""
    g, _ = lfr_like(500, rng=7)
    q_seq = seq_louvain(g).modularity
    q = solver(g).modularity
    assert q > 0.8 * q_seq


def test_lu_one_level_moves(karate):
    comm, sweeps = lu_one_level(karate, 1e-6)
    assert sweeps >= 1
    assert modularity(karate, comm) > 0.3


def test_lu_adaptive_thresholds():
    g, _ = lfr_like(600, rng=9)
    coarse = lu_louvain(g, threshold_bin=0.5, bin_vertex_limit=100)
    fine = lu_louvain(g, threshold_bin=0.5, bin_vertex_limit=10_000)
    assert coarse.sweeps_per_level[0] <= fine.sweeps_per_level[0]


def test_chunked_one_level_shuffle_beats_sync():
    """The shuffle matters: index-order chunks oscillate on mutual adoption."""
    g, _ = lfr_like(500, rng=7)
    comm_shuffled, _ = chunked_one_level(g, 1e-6, num_threads=32, shuffle_seed=0)
    comm_sync, _ = chunked_one_level(
        g, 1e-6, num_threads=10**9, shuffle_seed=None, max_inflight_fraction=1.0
    )
    assert modularity(g, comm_shuffled) > modularity(g, comm_sync)


def test_chunked_empty():
    g = from_edges([], [], num_vertices=3)
    comm, sweeps = chunked_one_level(g, 1e-6)
    assert comm.tolist() == [0, 1, 2]
    assert sweeps == 0


def test_random_parts_balanced():
    parts = random_parts(100, 4, rng=0)
    counts = np.bincount(parts)
    assert counts.size == 4
    assert counts.min() >= 20


def test_coarse_with_explicit_parts(karate):
    parts = np.zeros(34, dtype=np.int64)
    parts[17:] = 1
    result = coarse_louvain(karate, parts=parts)
    assert result.modularity > 0.3


def test_coarse_part_count_effect():
    """More parts -> more structure invisible in phase A, but the merge
    phase recovers most quality (the Section-6 observation)."""
    g, _ = lfr_like(600, rng=10)
    q1 = coarse_louvain(g, num_parts=2, rng=1).modularity
    q8 = coarse_louvain(g, num_parts=8, rng=1).modularity
    q_seq = seq_louvain(g).modularity
    assert q1 > 0.8 * q_seq
    assert q8 > 0.7 * q_seq


def test_coarse_rejects_bad_parts(karate):
    with pytest.raises(ValueError):
        coarse_louvain(karate, parts=np.zeros(3, dtype=np.int64))


def test_plm_num_threads_parameter(karate):
    few = plm_louvain(karate, num_threads=2)
    many = plm_louvain(karate, num_threads=64)
    assert few.modularity > 0.3
    assert many.modularity > 0.3


@settings(max_examples=50, deadline=None)
@given(graphs_with_partitions())
def test_vector_aggregate_matches_oracle(data):
    graph, labels = data
    fast_graph, fast_dense = aggregate_vectorized(graph, labels)
    seq_graph, seq_dense = seq_aggregate(graph, labels)
    assert fast_graph == seq_graph
    assert np.array_equal(fast_dense, seq_dense)


def test_coarse_level0_reports_its_sweeps():
    """Level 0's per-part phase reports its depth: the most sweeps any
    part ran, in the result and on the traced level and optimization."""
    from repro.core.config import GPULouvainConfig
    from repro.core.mod_opt import modularity_optimization
    from repro.graph.build import induced_subgraph
    from repro.obs.analyze import level_metrics
    from repro.trace import RunReport, Tracer

    g, _ = caveman(6, 8)
    parts = random_parts(g.num_vertices, 3, 0)
    tracer = Tracer()
    result = coarse_louvain(g, parts=parts, tracer=tracer)
    config = GPULouvainConfig(threshold_final=1e-6, threshold_bin=1e-2)
    expected = max(
        modularity_optimization(
            induced_subgraph(g, np.flatnonzero(parts == p)), config, 1e-6
        ).sweeps
        for p in range(3)
    )
    assert expected > 0
    assert result.sweeps_per_level[0] == expected
    level0 = level_metrics(RunReport(spans=tracer.roots))[0]
    assert level0.level == 0
    assert level0.sweeps == expected
    assert level0.mteps > 0
    (level_span,) = [
        lv for lv in tracer.roots[0].find("level") if lv.attributes["level"] == 0
    ]
    assert level_span.counters["sweeps"] == expected
