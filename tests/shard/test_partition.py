"""Partition invariants for the sharded engine.

Every vertex lives in exactly one shard, so the shards' bucket slices
together score each bucket exactly once.
"""

import numpy as np
import pytest

from repro.graph.build import from_edges
from repro.graph.generators import caveman, karate_club, road_grid, social_network
from repro.shard import ShardPlan, bfs_partition, hash_partition


def graphs():
    rng = np.random.default_rng(7)
    caves, _ = caveman(6, 8)
    return {
        "karate": karate_club(),
        "caveman": caves,
        "road": road_grid(9, 9, rng=rng),
        "social": social_network(300, 5, rng),
        "two_edges": from_edges([0, 2], [1, 3]),
    }


@pytest.fixture(params=list(graphs()))
def graph(request):
    return graphs()[request.param]


@pytest.mark.parametrize("method", ["bfs", "hash"])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_every_vertex_in_exactly_one_shard(graph, method, num_shards):
    plan = ShardPlan.build(graph, num_shards, method=method)
    assert plan.parts.shape == (graph.num_vertices,)
    assert plan.parts.min() >= 0
    assert plan.parts.max() < num_shards
    counted = sum(plan.shard_members(s).size for s in range(num_shards))
    assert counted == graph.num_vertices
    # shard_members sets are disjoint by construction of flatnonzero on
    # an equality mask, but check the union anyway.
    union = np.concatenate([plan.shard_members(s) for s in range(num_shards)])
    assert np.array_equal(np.sort(union), np.arange(graph.num_vertices))


def test_more_shards_than_vertices():
    graph = from_edges([0, 1], [1, 2])
    for method in ("bfs", "hash"):
        plan = ShardPlan.build(graph, 10, method=method)
        assert plan.parts.shape == (3,)
        assert plan.parts.min() >= 0 and plan.parts.max() < 10


def test_disconnected_components_all_assigned():
    # three disjoint edges, bfs must reseed across components
    graph = from_edges([0, 2, 4], [1, 3, 5])
    parts = bfs_partition(graph, 2)
    assert (parts >= 0).all()
    counts = np.bincount(parts, minlength=2)
    assert counts.sum() == 6
    assert counts.max() <= 3  # ceil(6/2) balance


def test_bfs_blocks_are_balanced(graph):
    parts = bfs_partition(graph, 3)
    counts = np.bincount(parts, minlength=3)
    target = -(-graph.num_vertices // 3)
    # each closed block stops within one frontier of the target; the
    # last shard absorbs the remainder
    assert counts[:-1].max() <= target
    assert counts.sum() == graph.num_vertices


def test_hash_partition_deterministic_and_spread():
    a = hash_partition(1000, 4)
    b = hash_partition(1000, 4)
    assert np.array_equal(a, b)
    counts = np.bincount(a, minlength=4)
    assert counts.min() > 150  # splitmix64 spreads ~uniformly


def test_hash_partition_rejects_zero_shards():
    with pytest.raises(ValueError):
        hash_partition(10, 0)
    graph = from_edges([0], [1])
    with pytest.raises(ValueError):
        bfs_partition(graph, 0)
