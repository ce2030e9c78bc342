"""End-to-end tests for the GPU Louvain driver."""

import numpy as np
import pytest

from repro.core.config import GPULouvainConfig
from repro.core.gpu_louvain import gpu_louvain
from repro.graph.build import from_edges
from repro.graph.generators import (
    caveman,
    karate_club,
    lfr_like,
    planted_partition,
    with_random_weights,
)
from repro.metrics.modularity import modularity
from repro.metrics.quality import adjusted_rand_index
from repro.seq.louvain import louvain as seq_louvain


def test_karate(karate):
    result = gpu_louvain(karate)
    assert result.modularity == pytest.approx(0.4188, abs=0.02)
    assert modularity(karate, result.membership) == pytest.approx(result.modularity)


def test_caveman_exact_recovery():
    g, truth = caveman(8, 10)
    result = gpu_louvain(g)
    assert adjusted_rand_index(result.membership, truth) == pytest.approx(1.0)


def test_planted_partition_recovery():
    g, truth = planted_partition(5, 20, 0.6, 0.01, rng=0)
    result = gpu_louvain(g)
    assert adjusted_rand_index(result.membership, truth) > 0.8


def test_quality_close_to_sequential():
    """The paper's headline: within ~2% of sequential modularity."""
    graphs = [lfr_like(500, rng=s)[0] for s in (1, 2, 3)]
    rel = []
    for g in graphs:
        q_gpu = gpu_louvain(g).modularity
        q_seq = seq_louvain(g).modularity
        rel.append(q_gpu / q_seq)
    assert np.mean(rel) > 0.97


def test_config_object_and_overrides_exclusive(karate):
    with pytest.raises(TypeError):
        gpu_louvain(karate, GPULouvainConfig(), threshold_bin=1e-3)


def test_overrides_build_config(karate):
    result = gpu_louvain(karate, threshold_bin=1e-1, threshold_final=1e-3)
    assert result.modularity > 0.3


def test_deterministic(karate):
    a = gpu_louvain(karate)
    b = gpu_louvain(karate)
    assert np.array_equal(a.membership, b.membership)
    assert a.modularity == b.modularity


def test_engines_produce_identical_clustering(karate):
    vec = gpu_louvain(karate, engine="vectorized")
    sim = gpu_louvain(karate, engine="simulated")
    assert np.array_equal(vec.membership, sim.membership)
    assert vec.modularity == sim.modularity


def test_simulated_profile_populated(karate):
    sim = gpu_louvain(karate, engine="simulated")
    assert sim.profile is not None
    assert sim.simulated_seconds is not None and sim.simulated_seconds > 0
    assert 0 < sim.profile.active_thread_fraction() <= 1
    assert len(sim.profile.optimization) == sim.num_levels


def test_vectorized_profile_absent(karate):
    vec = gpu_louvain(karate)
    assert vec.profile is None
    assert vec.simulated_seconds is None


def test_result_structure(karate):
    result = gpu_louvain(karate)
    assert result.num_levels == len(result.levels) == len(result.level_sizes)
    assert len(result.sweeps_per_level) == result.num_levels
    assert len(result.modularity_per_level) == result.num_levels
    assert result.level_sizes[0] == (34, 78)
    assert len(result.sweep_stats) == result.num_levels


def test_modularity_per_level_non_decreasing(karate):
    result = gpu_louvain(karate)
    diffs = np.diff(result.modularity_per_level)
    assert np.all(diffs >= -1e-9)


def test_levels_shrink(karate):
    result = gpu_louvain(karate)
    sizes = [n for n, _ in result.level_sizes]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_teps_accessor(karate):
    result = gpu_louvain(karate)
    teps = result.teps(karate)
    assert teps.edges_traversed == karate.num_stored_edges * result.first_phase_sweeps
    assert teps.teps > 0


def test_empty_graph():
    g = from_edges([], [], num_vertices=5)
    result = gpu_louvain(g)
    assert result.num_communities == 5
    assert result.modularity == 0.0


def test_single_edge():
    g = from_edges([0], [1])
    result = gpu_louvain(g)
    # two vertices, one edge: they merge (Q = 0 for the merged partition,
    # but staying apart scores -0.5).
    assert result.num_communities == 1


def test_weighted_graphs():
    g = karate_club()
    weighted = with_random_weights(g, rng=5, low=0.5, high=4.0)
    result = gpu_louvain(weighted)
    assert result.modularity > 0.3


def test_adaptive_threshold_switch():
    """Levels above bin_vertex_limit use t_bin (fewer first-level sweeps)."""
    g, _ = lfr_like(800, rng=6)
    coarse = gpu_louvain(g, threshold_bin=0.5, bin_vertex_limit=100)
    fine = gpu_louvain(g, threshold_bin=0.5, bin_vertex_limit=100_000)
    assert coarse.sweeps_per_level[0] <= fine.sweeps_per_level[0]


def test_max_levels_respected(karate):
    result = gpu_louvain(karate, max_levels=1)
    assert result.num_levels == 1


def test_relaxed_updates_end_to_end(karate):
    result = gpu_louvain(karate, relaxed_updates=True)
    assert result.modularity > 0.35


def test_degenerate_identity_level_not_recorded():
    """A no-op tail level (identity map, no contraction) is dropped."""
    # Two disjoint triangles collapse to two supernodes in one level; the
    # next optimization cannot move anything, so its aggregation maps the
    # 2-vertex graph onto itself — a degenerate level that must not be
    # recorded and must not change the flattened membership.
    g = from_edges([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    result = gpu_louvain(g)
    for mapping in result.levels[1:]:
        assert not np.array_equal(
            mapping, np.arange(mapping.size, dtype=np.int64)
        )
    from repro.result import flatten_levels

    assert np.array_equal(flatten_levels(list(result.levels)), result.membership)
    assert len(result.levels) == len(result.sweep_stats)
    assert result.num_communities == 2


def test_single_level_degenerate_input_kept():
    """An edgeless graph keeps its only (identity) level for well-formedness."""
    g = from_edges([], [], num_vertices=4)
    result = gpu_louvain(g)
    assert len(result.levels) == 1
    assert np.array_equal(result.membership, np.arange(4))
