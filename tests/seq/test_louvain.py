"""Tests for the sequential Louvain baseline."""

import numpy as np
import pytest

from repro.graph.build import from_edges
from repro.graph.generators import (
    caveman,
    complete,
    lfr_like,
    planted_partition,
    ring,
    with_random_weights,
)
from repro.metrics.modularity import modularity
from repro.metrics.quality import adjusted_rand_index
from repro.seq.louvain import louvain, one_level
from repro.trace import Tracer


def test_karate_modularity(karate):
    result = louvain(karate)
    assert result.modularity == pytest.approx(0.4188, abs=5e-3)
    assert 2 <= result.num_communities <= 6


def test_result_membership_consistent(karate):
    result = louvain(karate)
    assert result.membership.shape == (34,)
    assert modularity(karate, result.membership) == pytest.approx(result.modularity)


def test_caveman_recovers_caves():
    g, truth = caveman(6, 8)
    result = louvain(g)
    assert result.num_communities == 6
    assert adjusted_rand_index(result.membership, truth) == pytest.approx(1.0)


def test_planted_partition_recovery():
    g, truth = planted_partition(4, 25, 0.6, 0.01, rng=0)
    result = louvain(g)
    assert adjusted_rand_index(result.membership, truth) > 0.8


def test_modularity_per_level_monotone(karate):
    result = louvain(karate)
    diffs = np.diff(result.modularity_per_level)
    assert np.all(diffs >= -1e-12)


def test_complete_graph_single_community():
    # K6 has no community structure: everything merges (Q = 0).
    result = louvain(complete(6))
    assert result.modularity == pytest.approx(0.0, abs=1e-9)


def test_ring_communities():
    result = louvain(ring(12))
    # Louvain groups consecutive runs of a cycle; Q ~ 0.5+ for n=12.
    assert result.modularity > 0.4
    assert result.num_communities >= 2


def test_empty_graph():
    g = from_edges([], [], num_vertices=4)
    result = louvain(g)
    assert result.num_communities == 4
    assert result.modularity == 0.0


def test_single_vertex():
    g = from_edges([], [], num_vertices=1)
    result = louvain(g)
    assert result.membership.tolist() == [0]


def test_self_loops_only():
    g = from_edges([0, 1], [0, 1], [2.0, 3.0])
    result = louvain(g)
    assert result.num_communities == 2


def test_weighted_graph_respects_weights():
    # Strong edge 0-1, weak edges elsewhere: 0 and 1 must share a community.
    g = from_edges([0, 1, 2, 3], [1, 2, 3, 0], [100.0, 1.0, 100.0, 1.0])
    result = louvain(g)
    m = result.membership
    assert m[0] == m[1]
    assert m[2] == m[3]
    assert m[0] != m[2]


def test_threshold_coarse_stops_earlier():
    g, _ = lfr_like(600, rng=3)
    fine = louvain(g, threshold=1e-7)
    coarse = louvain(g, threshold=5e-2)
    total_fine = sum(fine.sweeps_per_level)
    total_coarse = sum(coarse.sweeps_per_level)
    assert total_coarse <= total_fine
    assert coarse.modularity <= fine.modularity + 1e-9


def test_adaptive_uses_bin_threshold():
    g, _ = lfr_like(600, rng=4)
    adaptive = louvain(
        g, adaptive=True, threshold_bin=5e-2, threshold_final=1e-6, bin_vertex_limit=100
    )
    plain = louvain(g, threshold=1e-6)
    # Adaptive must not take more first-level sweeps than the fine run.
    assert adaptive.sweeps_per_level[0] <= plain.sweeps_per_level[0]
    # And modularity stays within a few percent (paper: 0.13% avg drop).
    assert adaptive.modularity > 0.9 * plain.modularity


def test_one_level_returns_sweeps(karate):
    comm, sweeps = one_level(karate, 1e-6)
    assert comm.shape == (34,)
    assert sweeps >= 1
    assert modularity(karate, comm) > 0.3


def test_one_level_empty():
    g = from_edges([], [], num_vertices=2)
    comm, sweeps = one_level(g, 1e-6)
    assert comm.tolist() == [0, 1]
    assert sweeps == 0


def test_level_sizes_decreasing(karate):
    result = louvain(karate)
    sizes = [n for n, _ in result.level_sizes]
    assert sizes[0] == 34
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_deterministic(karate):
    a = louvain(karate)
    b = louvain(karate)
    assert np.array_equal(a.membership, b.membership)


def test_weighted_equivalence_unit_weights(karate):
    weighted = with_random_weights(karate, rng=0, low=1.0, high=1.0)
    assert louvain(weighted).modularity == pytest.approx(louvain(karate).modularity)


def test_timings_populated(karate):
    tracer = Tracer()
    result = louvain(karate, tracer=tracer)
    (run,) = tracer.roots
    assert run.seconds > 0
    assert len(run.find("level")) == result.num_levels
