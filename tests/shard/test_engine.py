"""Sharded engine: differential gate, config validation, tracing.

The differential gate — NMI >= 0.95 and Q within 1e-6 of the
single-process vectorized engine on every suite graph — is pinned here
in its strongest form: the sharded engine is asserted *bit-identical*
(``array_equal`` membership, same per-sweep moves and Q), which implies
both bounds.
"""

import numpy as np
import pytest

from repro.bench.suite import small_suite
from repro.core.gpu_louvain import gpu_louvain
from repro.graph.build import from_edges
from repro.graph.generators import social_network
from repro.metrics.quality import normalized_mutual_information
from repro.shard import ShardConfig, sharded_louvain
from repro.trace import Tracer, report_from_result, validate_report

SCALE = 0.25


@pytest.fixture(scope="module")
def suite_graphs():
    return {entry.name: entry.load(SCALE) for entry in small_suite()}


@pytest.fixture(scope="module")
def baselines(suite_graphs):
    return {name: gpu_louvain(graph) for name, graph in suite_graphs.items()}


def _per_sweep(run):
    """Each level's per-sweep moves, tracked and exact Q, and scored count."""
    return [
        [
            (s.moves_per_bucket, s.q_incremental, s.q_exact, s.frontier_size)
            for s in stage.sweep_stats
        ]
        for stage in run.timings.stages
    ]


@pytest.mark.parametrize("entry", small_suite(), ids=lambda e: e.name)
def test_sync_differential_gate(entry, suite_graphs, baselines):
    """Sync mode vs vectorized across the whole small suite (satellite 4)."""
    graph = suite_graphs[entry.name]
    base = baselines[entry.name]
    result = sharded_louvain(
        graph,
        shard=ShardConfig(workers=2, pool="inline", shard_min_vertices=8),
    )
    # the ISSUE's gate...
    nmi = normalized_mutual_information(base.membership, result.membership)
    assert nmi >= 0.95, f"{entry.name}: NMI {nmi:.4f}"
    assert abs(result.modularity - base.modularity) <= 1e-6
    # ...and the stronger property that implies it
    assert np.array_equal(base.membership, result.membership)
    assert result.sweeps_per_level == base.sweeps_per_level
    # The sharded phase runs the single-process sweep loop: every sweep
    # of every level commits the same moves and tracks the same Q.
    assert _per_sweep(result) == _per_sweep(base)


@pytest.mark.parametrize("workers", [1, 3, 4])
def test_sync_worker_count_invariant(workers):
    graph = social_network(600, 6, np.random.default_rng(5))
    base = gpu_louvain(graph)
    result = sharded_louvain(
        graph,
        shard=ShardConfig(
            workers=workers, pool="inline", shard_min_vertices=8, partition="hash"
        ),
    )
    assert np.array_equal(base.membership, result.membership)
    assert result.modularity == pytest.approx(base.modularity, abs=1e-12)


def test_non_integral_weights_match_vectorized():
    """Float edge weights: same commits and Q tracking, so still exact."""
    rng = np.random.default_rng(3)
    u, v, _ = social_network(500, 5, rng).edge_list(unique=True)
    graph = from_edges(u, v, rng.uniform(0.1, 3.0, size=u.size))
    base = gpu_louvain(graph)
    result = sharded_louvain(
        graph, shard=ShardConfig(workers=3, pool="inline", shard_min_vertices=8)
    )
    assert np.array_equal(base.membership, result.membership)
    assert result.modularity == base.modularity
    assert _per_sweep(result) == _per_sweep(base)


def test_sync_fork_real_processes():
    """The shared-memory fan-out with real fork workers stays identical."""
    graph = social_network(800, 6, np.random.default_rng(9))
    base = gpu_louvain(graph)
    result = sharded_louvain(
        graph, shard=ShardConfig(workers=2, pool="fork", shard_min_vertices=8)
    )
    assert np.array_equal(base.membership, result.membership)


def test_warm_start_matches_vectorized():
    graph = social_network(500, 5, np.random.default_rng(2))
    warm = gpu_louvain(graph).membership
    base = gpu_louvain(graph, initial_communities=warm)
    result = sharded_louvain(
        graph,
        shard=ShardConfig(workers=2, pool="inline", shard_min_vertices=8),
        initial_communities=warm,
    )
    assert np.array_equal(base.membership, result.membership)


def test_traced_run_validates_and_carries_shard_spans():
    graph = social_network(600, 6, np.random.default_rng(5))
    tracer = Tracer()
    result = sharded_louvain(
        graph,
        shard=ShardConfig(workers=2, pool="inline", shard_min_vertices=8),
        tracer=tracer,
    )
    report = report_from_result(
        result, tracer=tracer, graph="social", engine="sharded"
    )
    validate_report(report.to_dict())
    run = tracer.roots[0]
    assert run.attributes["engine"] == "sharded"
    opts = [
        child
        for level in run.find("level")
        for child in level.children
        if child.name == "optimization" and child.attributes.get("sharded")
    ]
    assert opts, "no sharded optimization span"
    for opt in opts:
        shards = [c for c in opt.children if c.name == "shard"]
        assert shards, "optimization span carries no per-shard spans"
        for shard_span in shards:
            assert "moves" in shard_span.counters
            assert "frontier" in shard_span.counters
        assert opt.counters["workers_seconds_total"] >= 0.0
        assert (
            opt.counters["workers_seconds_critical"]
            <= opt.counters["workers_seconds_total"] + 1e-12
        )


def test_coordinator_builds_no_sweep_plan(monkeypatch):
    """On sharded levels only the workers' slice plans gather edges."""
    import repro.core.mod_opt as mod_opt

    graph = social_network(400, 5, np.random.default_rng(4))
    base = gpu_louvain(graph)
    # Any coordinator-side plan would now fail; the workers' SliceScorer
    # holds its own reference to the class.
    monkeypatch.setattr(mod_opt, "SweepPlan", None)
    result = sharded_louvain(
        graph, shard=ShardConfig(workers=2, pool="inline", shard_min_vertices=1)
    )
    assert np.array_equal(base.membership, result.membership)


def test_small_levels_fall_back_to_single_process():
    graph = social_network(400, 5, np.random.default_rng(4))
    tracer = Tracer()
    sharded_louvain(
        graph,
        shard=ShardConfig(workers=2, pool="inline", shard_min_vertices=10_000),
        tracer=tracer,
    )
    run = tracer.roots[0]
    for level in run.find("level"):
        for child in level.children:
            if child.name == "optimization":
                assert not child.attributes.get("sharded")


def test_config_validation():
    with pytest.raises(ValueError):
        ShardConfig(workers=0)
    with pytest.raises(ValueError):
        ShardConfig(pool="threads")
    with pytest.raises(ValueError):
        ShardConfig(partition="metis")
    # The color-mode knobs are gone, not silently ignored.
    for retired in ("mode", "polish", "max_rounds", "validate_commits"):
        with pytest.raises(TypeError):
            ShardConfig(**{retired: 1})


def test_requires_vectorized_engine():
    graph = social_network(100, 4, np.random.default_rng(1))
    with pytest.raises(ValueError):
        sharded_louvain(graph, engine="simulated")
    # ...with per-bucket commits, which the workers' slice plans observe.
    with pytest.raises(ValueError, match="per-bucket"):
        sharded_louvain(graph, relaxed_updates=True)


def test_rejects_bad_initial_communities():
    graph = social_network(100, 4, np.random.default_rng(1))
    with pytest.raises(ValueError):
        sharded_louvain(graph, initial_communities=np.zeros(3, dtype=np.int64))
