"""Tests for computeMove (Alg. 2) — both engines against the Eq.-2 oracle."""

import numpy as np
from hypothesis import given, settings

from repro.core.buckets import degree_buckets
from repro.core.compute_move import (
    compute_moves_simulated,
    compute_moves_vectorized,
)
from repro.core.config import DEGREE_BUCKETS, GROUP_SIZES
from repro.graph.build import from_edges
from repro.graph.generators import karate_club, lfr_like
from repro.gpu.costmodel import CostModel
from repro.metrics.modularity import move_gain

from ..conftest import csr_graphs


def _state(graph, comm):
    k = graph.weighted_degrees
    n = graph.num_vertices
    volumes = np.bincount(comm, weights=k, minlength=n)
    sizes = np.bincount(comm, minlength=n)
    return k, volumes, sizes


def _oracle_best_move(graph, comm, vertex, sizes, singleton=True):
    """Brute-force best target by Eq. 2 with the paper's rules."""
    own = int(comm[vertex])
    candidates = set()
    for nb in graph.neighbors(vertex):
        if nb != vertex:
            candidates.add(int(comm[nb]))
    candidates.discard(own)
    best_c, best_gain = own, 0.0
    for c in sorted(candidates):
        if singleton and sizes[own] == 1 and sizes[c] == 1 and c > own:
            continue
        gain = move_gain(graph, comm, vertex, c)
        if gain > best_gain + 1e-12:
            best_gain, best_c = gain, c
    return best_c


def test_matches_oracle_on_karate():
    g = karate_club()
    comm = np.arange(34, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(g, comm, volumes, sizes, np.arange(34), k=k)
    for v in range(34):
        assert new[v] == _oracle_best_move(g, comm, v, sizes)


def test_matches_oracle_mid_run():
    g = karate_club()
    comm = (np.arange(34) % 6).astype(np.int64)
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(g, comm, volumes, sizes, np.arange(34), k=k)
    for v in range(34):
        assert new[v] == _oracle_best_move(g, comm, v, sizes)


def test_no_positive_gain_stays():
    # Two cliques fully merged: no vertex should want to leave.
    g = from_edges([0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5])
    comm = np.array([0, 0, 0, 3, 3, 3])
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(g, comm, volumes, sizes, np.arange(6), k=k)
    assert np.array_equal(new, comm)


def test_singleton_rule_blocks_higher_id():
    # Two isolated singletons joined by one edge: only the higher may move
    # to the lower (C[j] < C[i] required).
    g = from_edges([0], [1])
    comm = np.array([0, 1])
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(g, comm, volumes, sizes, np.array([0, 1]), k=k)
    assert new[0] == 0  # vertex 0 may not join community 1
    assert new[1] == 0  # vertex 1 joins community 0


def test_singleton_rule_disabled():
    g = from_edges([0], [1])
    comm = np.array([0, 1])
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(
        g, comm, volumes, sizes, np.array([0, 1]), k=k, singleton_constraint=False
    )
    assert new[0] == 1  # both now want each other's community
    assert new[1] == 0


def test_singleton_may_join_nonsingleton():
    # vertex 3 singleton next to community {0,1,2} with higher... lower id
    g = from_edges([0, 0, 1, 2], [1, 2, 2, 3])
    comm = np.array([0, 0, 0, 3])
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(g, comm, volumes, sizes, np.array([3]), k=k)
    assert new[0] == 0  # joins the triangle's community


def test_tie_breaks_to_lowest_community():
    # vertex 2 sits between two identical singleton-pair communities.
    # edges: (0,1) comm A=0, (3,4) comm B=3, vertex 2 linked to 1 and 3.
    g = from_edges([0, 3, 2, 2], [1, 4, 1, 3])
    comm = np.array([0, 0, 2, 3, 3])
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(g, comm, volumes, sizes, np.array([2]), k=k)
    # both moves give identical gain; lowest community id (0) wins
    assert new[0] == 0


def test_empty_vertex_set():
    g = karate_club()
    comm = np.arange(34, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    out = compute_moves_vectorized(g, comm, volumes, sizes, np.array([], dtype=np.int64), k=k)
    assert out.size == 0


def test_isolated_vertex_stays():
    g = from_edges([0], [1], num_vertices=3)
    comm = np.arange(3, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    out = compute_moves_vectorized(g, comm, volumes, sizes, np.array([2]), k=k)
    assert out.tolist() == [2]


def test_self_loop_only_vertex_stays():
    g = from_edges([0, 1], [0, 2], num_vertices=3)
    comm = np.arange(3, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    out = compute_moves_vectorized(g, comm, volumes, sizes, np.array([0]), k=k)
    assert out.tolist() == [0]


def test_zero_weight_graph():
    g = from_edges([], [], num_vertices=2)
    comm = np.arange(2, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    out = compute_moves_vectorized(g, comm, volumes, sizes, np.arange(2), k=k)
    assert out.tolist() == [0, 1]


def test_simulated_engine_matches_vectorized_karate():
    g = karate_club()
    comm = np.arange(34, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    cm = CostModel()
    buckets = degree_buckets(g.degrees, DEGREE_BUCKETS, GROUP_SIZES)
    for bucket in buckets:
        if bucket.size == 0:
            continue
        vec = compute_moves_vectorized(g, comm, volumes, sizes, bucket.members, k=k)
        sim, stats = compute_moves_simulated(
            g, comm, volumes, sizes, bucket, cm, k=k
        )
        assert np.array_equal(vec, sim)
        assert stats.num_vertices == bucket.size
        assert stats.warp_cycles > 0
        assert stats.hash_stats.probes >= stats.num_edges


def test_simulated_stats_shared_vs_global():
    g = karate_club()
    comm = np.arange(34, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    cm = CostModel()
    buckets = degree_buckets(g.degrees, (2,), (4, 128))
    # bucket 1 is the unbounded one -> global memory tables
    _, stats_global = compute_moves_simulated(g, comm, volumes, sizes, buckets[1], cm, k=k)
    _, stats_shared = compute_moves_simulated(g, comm, volumes, sizes, buckets[0], cm, k=k)
    assert stats_global.global_bytes > 0
    assert stats_global.shared_bytes == 0
    assert stats_shared.shared_bytes > 0
    assert stats_shared.global_bytes == 0


@settings(max_examples=40, deadline=None)
@given(csr_graphs(max_vertices=16, max_edges=40, weighted=True))
def test_vectorized_matches_oracle_property(g):
    """Property: every chosen move is the oracle's best positive-gain move."""
    if g.num_vertices == 0 or g.m == 0:
        return
    comm = np.arange(g.num_vertices, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    new = compute_moves_vectorized(
        g, comm, volumes, sizes, np.arange(g.num_vertices), k=k
    )
    for v in range(g.num_vertices):
        assert new[v] == _oracle_best_move(g, comm, v, sizes)


@settings(max_examples=30, deadline=None)
@given(csr_graphs(max_vertices=16, max_edges=40, weighted=True))
def test_engines_identical_property(g):
    """Property: both engines pick identical moves on arbitrary graphs."""
    if g.num_vertices == 0:
        return
    comm = np.arange(g.num_vertices, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    cm = CostModel()
    buckets = degree_buckets(g.degrees, DEGREE_BUCKETS, GROUP_SIZES)
    for bucket in buckets:
        if bucket.size == 0:
            continue
        vec = compute_moves_vectorized(g, comm, volumes, sizes, bucket.members, k=k)
        sim, _ = compute_moves_simulated(g, comm, volumes, sizes, bucket, cm, k=k)
        assert np.array_equal(vec, sim)


def test_bucket7_block_assignment_stats():
    """Bucket 7 (degree > 319): degree-sorted interleaved block assignment
    with re-used global-memory tables (Section 4.1)."""
    from repro.graph.generators import star

    g = star(900)  # hub degree 899
    comm = np.arange(900, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    cm = CostModel()
    buckets = degree_buckets(g.degrees, DEGREE_BUCKETS, GROUP_SIZES)
    hub_bucket = buckets[-1]
    assert hub_bucket.members.tolist() == [0]
    moves, stats = compute_moves_simulated(
        g, comm, volumes, sizes, hub_bucket, cm, k=k
    )
    # single vertex: one block of 4 warps, one reused global table
    assert stats.num_warps == 4
    assert stats.global_bytes > 0
    assert stats.shared_bytes == 0


def test_bucket7_multiple_vertices_share_blocks():
    """More bucket-7 vertices than concurrent blocks: reuse, not growth."""
    from repro.graph.build import from_edges

    rng = np.random.default_rng(0)
    # build ~100 vertices of degree ~330 (bucket 7) over a 40k pool
    us, vs = [], []
    hub_count = 100
    pool = 40_000
    for hub in range(hub_count):
        targets = rng.choice(
            np.arange(hub_count, pool), size=330, replace=False
        )
        us.append(np.full(330, hub))
        vs.append(targets)
    g = from_edges(np.concatenate(us), np.concatenate(vs), num_vertices=pool)
    comm = np.arange(pool, dtype=np.int64)
    k, volumes, sizes = _state(g, comm)
    cm = CostModel()
    buckets = degree_buckets(g.degrees, DEGREE_BUCKETS, GROUP_SIZES)
    hub_bucket = buckets[-1]
    assert hub_bucket.size == hub_count
    _, stats = compute_moves_simulated(g, comm, volumes, sizes, hub_bucket, cm, k=k)
    concurrent_blocks = min(hub_count, cm.device.num_sms * 4)
    # warps bounded by concurrent blocks, not by vertex count
    assert stats.num_warps == concurrent_blocks * 4
    # global allocation: one table per concurrent block (reused), so far
    # less than one table per vertex
    per_vertex_alloc = 12 * (1.5 * 330)
    assert stats.global_bytes < hub_count * per_vertex_alloc * 0.8


# --------------------------------------------------------------------- #
# Combined-key overflow: the lexsort fallback
# --------------------------------------------------------------------- #
def test_radix_overflow_falls_back_to_lexsort(monkeypatch):
    """Shrinking the key ceiling must not change the permutation."""
    import repro.core.compute_move as cm

    rng = np.random.default_rng(0)
    owner_local = np.sort(rng.integers(0, 5, size=200))
    dst_comm = rng.integers(0, 40, size=200)
    n = 40
    baseline = cm.segment_sort_order(owner_local, dst_comm, n)
    monkeypatch.setattr(cm, "_MAX_RADIX_KEY", 10)  # force the fallback
    fallback = cm.segment_sort_order(owner_local, dst_comm, n)
    assert np.array_equal(baseline, fallback)
    assert np.array_equal(fallback, np.lexsort((dst_comm, owner_local)))


def test_radix_overflow_run_is_identical(monkeypatch):
    """A full run through the overflow path reproduces the simulated run."""
    import repro.core.compute_move as cm
    import repro.core.sweep_plan as sp
    from repro.core.gpu_louvain import gpu_louvain

    g, _ = lfr_like(150, 4, avg_degree=8, mixing=0.25)
    expected = gpu_louvain(g, engine="simulated")

    monkeypatch.setattr(cm, "_MAX_RADIX_KEY", 0)
    monkeypatch.setattr(sp, "_INT32_MAX", -1)  # plan: no int32 keys
    monkeypatch.setattr(sp, "_INT64_MAX", -1)  # plan: no combined keys at all
    out = gpu_louvain(g)
    assert np.array_equal(out.membership, expected.membership)
    assert out.modularity == expected.modularity
