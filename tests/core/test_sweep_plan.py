"""Differential tests for the SweepPlan cache.

The plan is a pure optimization: the vectorized engine must produce the
*bit-identical* run (same per-sweep moves, membership, modularity) as the
simulated hash-table engine, which builds no plan and recomputes Q
exactly every sweep; the kernel must score every bucket identically with
and without its plan; and the incremental modularity tracking must agree
with the exact recompute.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import mod_opt
from repro.core.buckets import degree_buckets
from repro.core.config import GPULouvainConfig
from repro.core.gpu_louvain import gpu_louvain
from repro.core.sweep_plan import SweepPlan
from repro.graph.build import from_edges
from repro.graph.generators import karate_club, lfr_like

from ..conftest import csr_graphs


def _run(graph, **overrides):
    return gpu_louvain(graph, **overrides)


# --------------------------------------------------------------------- #
# Plan vs simulated: identical moves
# --------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(csr_graphs(max_vertices=24, max_edges=60))
def test_plan_matches_simulated_engine(graph):
    with_plan = _run(graph)
    simulated = _run(graph, engine="simulated")
    assert np.array_equal(with_plan.membership, simulated.membership)
    assert with_plan.modularity == simulated.modularity
    assert with_plan.sweeps_per_level == simulated.sweeps_per_level


@settings(max_examples=40, deadline=None)
@given(csr_graphs(max_vertices=24, max_edges=60))
def test_plan_matches_no_plan(graph):
    # Kernel level: over a level-0 replay from singletons, every bucket's
    # moves scored through the plan (with its pair caches patched by each
    # commit) equal the plan-less kernel's on the same state.
    from repro.core.compute_move import compute_moves_vectorized
    from repro.core.mod_opt import _commit_moves

    config = GPULouvainConfig()
    buckets = degree_buckets(
        graph.degrees, config.degree_bucket_bounds, config.group_sizes
    )
    n = graph.num_vertices
    k = graph.weighted_degrees
    comm = np.arange(n, dtype=np.int64)
    volumes = np.bincount(comm, weights=k, minlength=n)
    sizes = np.bincount(comm, minlength=n)
    plan = SweepPlan.build(graph, buckets)
    plan.track_validity = True
    plan.bind_communities(comm)
    for _ in range(20):
        moved = 0
        for index, bucket in enumerate(buckets):
            members = bucket.members
            if members.size == 0:
                continue
            without = compute_moves_vectorized(graph, comm, volumes, sizes, members, k=k)
            with_plan = compute_moves_vectorized(
                graph, comm, volumes, sizes, members, k=k, plan=plan.for_bucket(index)
            )
            assert np.array_equal(with_plan, without)
            changed = with_plan != comm[members]
            if changed.any():
                movers = members[changed]
                _commit_moves(
                    plan, comm, movers, comm[movers], with_plan[changed], volumes, sizes, k
                )
                moved += int(changed.sum())
        if moved == 0:
            break


@settings(max_examples=25, deadline=None)
@given(csr_graphs(max_vertices=20, max_edges=50, weighted=True))
def test_plan_matches_simulated_engine_weighted(graph):
    # Non-integral weights disable patching/delta shortcuts; the plan
    # must still reproduce the exact run through its rebuild path.
    with_plan = _run(graph)
    simulated = _run(graph, engine="simulated")
    assert np.array_equal(with_plan.membership, simulated.membership)
    assert with_plan.modularity == simulated.modularity


def test_plan_matches_simulated_engine_lfr():
    graph, _ = lfr_like(400, 7, avg_degree=12, mixing=0.2)
    with_plan = _run(graph)
    simulated = _run(graph, engine="simulated")
    assert np.array_equal(with_plan.membership, simulated.membership)
    assert with_plan.modularity == simulated.modularity
    assert with_plan.sweeps_per_level == simulated.sweeps_per_level


# --------------------------------------------------------------------- #
# Incremental modularity vs exact recompute
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(csr_graphs(max_vertices=24, max_edges=60, min_edges=1))
def test_incremental_q_tracks_exact(graph):
    # exact_q_interval=1 recomputes the exact value after every sweep, so
    # every sweep record carries a drift measurement.
    out = _run(graph, exact_q_interval=1)
    drifts = [s.q_drift for level in out.sweep_stats for s in level]
    assert max((d for d in drifts if d is not None), default=0.0) <= 1e-9


def test_incremental_q_tracks_exact_lfr():
    graph, _ = lfr_like(300, 3, avg_degree=10, mixing=0.25)
    out = _run(graph, exact_q_interval=1)
    drifts = [
        s.q_drift
        for level in out.sweep_stats
        for s in level
        if s.q_drift is not None
    ]
    assert drifts, "exact_q_interval=1 must record a drift every sweep"
    assert max(drifts) <= 1e-9


def test_final_modularity_is_exact_recompute():
    graph = karate_club()
    out = _run(graph, exact_q_interval=1000)
    # Even with a huge interval the phase end recomputes exactly, so the
    # reported per-level modularity matches an independent evaluation.
    from repro.metrics.modularity import modularity

    assert out.modularity == modularity(graph, out.membership)


# --------------------------------------------------------------------- #
# Plan internals
# --------------------------------------------------------------------- #
def test_build_gathers_match_fresh_gather():
    graph, _ = lfr_like(120, 1, avg_degree=8, mixing=0.2)
    config = GPULouvainConfig()
    buckets = degree_buckets(
        graph.degrees, config.degree_bucket_bounds, config.group_sizes
    )
    plan = SweepPlan.build(graph, buckets)
    for bp in plan.bucket_plans:
        members = bp.bucket.members
        assert bp.kv.shape == members.shape
        # Edge arrays exclude self-loops and cover each member's rows.
        for local, v in enumerate(members.tolist()):
            seg = slice(bp.edge_indptr[local], bp.edge_indptr[local + 1])
            dsts = bp.dst[seg]
            expected = [nb for nb in graph.neighbors(v) if nb != v]
            assert sorted(dsts.tolist()) == sorted(expected)


def test_unit_weight_flag_set_for_unweighted_graph():
    graph = karate_club()
    config = GPULouvainConfig()
    buckets = degree_buckets(
        graph.degrees, config.degree_bucket_bounds, config.group_sizes
    )
    plan = SweepPlan.build(graph, buckets)
    assert plan.integral_weights
    for bp in plan.bucket_plans:
        if bp.dst.size:
            assert bp.unit_weights == bp.can_increment


def test_unit_weight_flag_clear_for_weighted_graph():
    graph = from_edges([0, 1, 2], [1, 2, 0], [1.5, 2.5, 1.0], num_vertices=3)
    config = GPULouvainConfig()
    buckets = degree_buckets(
        graph.degrees, config.degree_bucket_bounds, config.group_sizes
    )
    plan = SweepPlan.build(graph, buckets)
    for bp in plan.bucket_plans:
        assert not bp.unit_weights


def test_gather_reuse_counted():
    graph, _ = lfr_like(200, 2, avg_degree=10, mixing=0.2)
    out = _run(graph)
    total_sweeps = sum(out.sweeps_per_level)
    if total_sweeps > 1:
        assert sum(s.gather_reuse_hits for level in out.sweep_stats for s in level) > 0


def test_rejects_mismatched_vertex_set():
    from repro.core.compute_move import compute_moves_vectorized

    graph = karate_club()
    config = GPULouvainConfig()
    buckets = degree_buckets(
        graph.degrees, config.degree_bucket_bounds, config.group_sizes
    )
    plan = SweepPlan.build(graph, buckets)
    comm = np.arange(graph.num_vertices, dtype=np.int64)
    k = graph.weighted_degrees
    volumes = np.bincount(comm, weights=k, minlength=graph.num_vertices)
    sizes = np.bincount(comm, minlength=graph.num_vertices)
    nonempty = [bp for bp in plan.bucket_plans if bp.bucket.size]
    bp = nonempty[0]
    wrong = bp.bucket.members[:-1] if bp.bucket.size > 1 else np.array([0, 1])
    with pytest.raises(ValueError):
        compute_moves_vectorized(
            graph, comm, volumes, sizes, wrong, k=k, plan=bp
        )


@pytest.mark.parametrize("frontier", [False, True])
def test_plan_is_freed_when_the_phase_returns(monkeypatch, frontier):
    """No reference cycle keeps a phase's plan alive until the cyclic GC.

    The frontier path also swaps bucket plans in (``replace_bucket``).
    """
    plans = []
    build = mod_opt.SweepPlan.build

    def tracked_build(graph, buckets):
        plan = build(graph, buckets)
        plans.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(mod_opt.SweepPlan, "build", staticmethod(tracked_build))
    graph = karate_club()
    config = GPULouvainConfig()
    gc.disable()
    try:
        if frontier:
            mod_opt.frontier_modularity_optimization(
                graph, config, 1e-6,
                initial_communities=np.arange(graph.num_vertices),
                frontier=np.array([0, 33]),
            )
        else:
            mod_opt.modularity_optimization(graph, config, 1e-6)
        assert len(plans) == 1
        assert plans[0]() is None, "the plan outlived its phase"
    finally:
        gc.enable()
