"""Tests for the modularity-optimization phase (Alg. 1)."""

import numpy as np
import pytest

from repro.core.config import GPULouvainConfig
from repro.core.gpu_louvain import gpu_louvain
from repro.core.mod_opt import (
    frontier_modularity_optimization,
    modularity_optimization,
)
from repro.graph.build import from_edges
from repro.graph.generators import caveman, karate_club, lfr_like
from repro.metrics.modularity import modularity


def test_improves_modularity(karate):
    cfg = GPULouvainConfig()
    out = modularity_optimization(karate, cfg, 1e-6)
    assert out.modularity > 0.3  # one level; later levels close the gap
    assert modularity(karate, out.communities) == pytest.approx(out.modularity)
    assert out.sweeps >= 1


def test_caveman_first_level_groups_caves():
    g, truth = caveman(5, 8)
    cfg = GPULouvainConfig()
    out = modularity_optimization(g, cfg, 1e-6)
    # every cave collapses into a single community after one phase
    for cave in range(5):
        members = truth == cave
        assert np.unique(out.communities[members]).size == 1


def test_empty_graph():
    g = from_edges([], [], num_vertices=3)
    cfg = GPULouvainConfig()
    out = modularity_optimization(g, cfg, 1e-6)
    assert out.communities.tolist() == [0, 1, 2]
    assert out.sweeps == 0


def test_threshold_limits_sweeps():
    g, _ = lfr_like(500, rng=1)
    cfg = GPULouvainConfig()
    fine = modularity_optimization(g, cfg, 1e-7)
    coarse = modularity_optimization(g, cfg, 0.5)
    assert coarse.sweeps <= fine.sweeps


def test_max_sweeps_respected(karate):
    cfg = GPULouvainConfig(max_sweeps_per_level=1)
    out = modularity_optimization(karate, cfg, 1e-9)
    assert out.sweeps == 1


def test_initial_communities_used(karate):
    cfg = GPULouvainConfig()
    init = (np.arange(34) % 2).astype(np.int64)
    out = modularity_optimization(karate, cfg, 1e-6, initial_communities=init)
    assert modularity(karate, out.communities) >= modularity(karate, init) - 1e-9


def test_relaxed_mode_runs(karate):
    cfg = GPULouvainConfig(relaxed_updates=True)
    out = modularity_optimization(karate, cfg, 1e-6)
    assert out.modularity > 0.25


def test_relaxed_vs_bucketed_quality():
    """Section 5: full-run relaxed modularity is close, but slower (more
    sweeps) — the paper reports <0.13% difference and up to 10x slowdown."""
    g, _ = lfr_like(600, rng=2)
    bucketed = gpu_louvain(g)
    relaxed = gpu_louvain(g, relaxed_updates=True)
    assert abs(bucketed.modularity - relaxed.modularity) < 0.03 * bucketed.modularity
    assert sum(relaxed.sweeps_per_level) >= sum(bucketed.sweeps_per_level)


def test_simulated_engine_equals_vectorized(karate):
    out_v = modularity_optimization(karate, GPULouvainConfig(), 1e-6)
    out_s = modularity_optimization(
        karate, GPULouvainConfig(engine="simulated"), 1e-6
    )
    assert np.array_equal(out_v.communities, out_s.communities)
    assert out_s.profile.kernels  # stats collected
    assert not out_v.profile.kernels  # vectorized collects none


def test_no_singleton_constraint_still_works(karate):
    cfg = GPULouvainConfig(singleton_constraint=False)
    out = modularity_optimization(karate, cfg, 1e-6)
    assert out.modularity > 0.3


def test_deterministic(karate):
    cfg = GPULouvainConfig()
    a = modularity_optimization(karate, cfg, 1e-6)
    b = modularity_optimization(karate, cfg, 1e-6)
    assert np.array_equal(a.communities, b.communities)
    assert a.sweeps == b.sweeps


def _static(graph, labels):
    return modularity_optimization(
        graph, GPULouvainConfig(), 1e-6, initial_communities=labels
    )


def _frontier(graph, labels):
    return frontier_modularity_optimization(
        graph,
        GPULouvainConfig(),
        1e-6,
        initial_communities=labels,
        frontier=np.arange(graph.num_vertices),
    )


def _with_label(index: int, label: int) -> np.ndarray:
    labels = np.arange(34, dtype=np.int64)
    labels[index] = label
    return labels


@pytest.mark.parametrize("entry", [_static, _frontier], ids=["static", "frontier"])
@pytest.mark.parametrize(
    "labels, match",
    [
        (_with_label(24, 34), r"existing vertex ids \(0\.\.33\)"),
        (_with_label(0, -1), r"existing vertex ids \(0\.\.33\)"),
        (np.zeros(33, dtype=np.int64), r"expected shape \(34,\), got \(33,\)"),
        (np.zeros((34, 1), dtype=np.int64), r"expected shape \(34,\), got \(34, 1\)"),
    ],
    ids=["label-n", "negative", "short", "2d"],
)
def test_initial_communities_rejected(karate, entry, labels, match):
    with pytest.raises(ValueError, match=f"^initial_communities .*{match}"):
        entry(karate, labels)


def test_static_sweeps_report_scored_vertices():
    """Full sweeps score, and report, every non-isolated vertex."""
    u, v, w = karate_club().edge_list(unique=True)
    graph = from_edges(u, v, w, num_vertices=37)  # 3 isolated vertices
    out = gpu_louvain(graph)
    first = out.sweep_stats[0][0]
    assert first.frontier_size == int(np.count_nonzero(graph.degrees > 0)) == 34
