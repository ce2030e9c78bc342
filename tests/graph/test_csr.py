"""Tests for repro.graph.csr.CSRGraph."""

import numpy as np
import pytest
from hypothesis import given

from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph

from ..conftest import csr_graphs


def test_empty_graph():
    g = CSRGraph(
        indptr=np.zeros(1, dtype=np.int64),
        indices=np.empty(0, dtype=np.int64),
        weights=np.empty(0, dtype=np.float64),
    )
    assert g.num_vertices == 0
    assert g.num_edges == 0
    assert g.total_weight == 0.0


def test_single_vertex_no_edges():
    g = CSRGraph(
        indptr=np.zeros(2, dtype=np.int64),
        indices=np.empty(0, dtype=np.int64),
        weights=np.empty(0, dtype=np.float64),
    )
    assert g.num_vertices == 1
    assert g.degrees.tolist() == [0]
    assert g.weighted_degrees.tolist() == [0.0]


def test_triangle_counts(triangle):
    assert triangle.num_vertices == 3
    assert triangle.num_edges == 3
    assert triangle.__dict__["_num_edges"] == 3  # cached
    assert triangle.num_stored_edges == 6
    assert triangle.total_weight == 6.0
    assert triangle.m == 3.0


def test_degrees(triangle):
    assert triangle.degrees.tolist() == [2, 2, 2]
    assert triangle.weighted_degrees.tolist() == [2.0, 2.0, 2.0]


def test_neighbors_sorted(triangle):
    assert triangle.neighbors(0).tolist() == [1, 2]
    assert triangle.neighbors(1).tolist() == [0, 2]
    assert triangle.neighbors(2).tolist() == [0, 1]


def test_neighbor_weights():
    g = from_edges([0, 1], [1, 2], [2.5, 0.5])
    assert g.neighbor_weights(1).tolist() == [2.5, 0.5]


def test_self_loop_stored_once():
    g = from_edges([0, 0], [0, 1], [3.0, 1.0])
    assert g.num_stored_edges == 3  # loop once + edge twice
    assert "_num_edges" not in g.__dict__
    assert g.num_edges == 2
    assert g.__dict__["_num_edges"] == 2  # cached, self-loop counted once
    assert g.self_loop_weight(0) == 3.0
    assert g.self_loop_weight(1) == 0.0


def test_self_loop_in_weighted_degree_once():
    g = from_edges([0, 0], [0, 1], [3.0, 1.0])
    assert g.weighted_degrees[0] == 4.0
    assert g.weighted_degrees[1] == 1.0
    # 2m = sum of k_i
    assert g.total_weight == pytest.approx(5.0)


def test_self_loop_weights_vector():
    g = from_edges([0, 2], [0, 2], [1.5, 2.5], num_vertices=4)
    assert g.self_loop_weights().tolist() == [1.5, 0.0, 2.5, 0.0]


def test_vertex_of_edge(triangle):
    assert triangle.vertex_of_edge.tolist() == [0, 0, 1, 1, 2, 2]


def test_edge_list_unique():
    g = from_edges([0, 1, 2], [1, 2, 2], [1.0, 2.0, 5.0])
    u, v, w = g.edge_list(unique=True)
    assert sorted(zip(u.tolist(), v.tolist(), w.tolist())) == [
        (0, 1, 1.0),
        (1, 2, 2.0),
        (2, 2, 5.0),
    ]


def test_edge_list_directed():
    g = from_edges([0], [1])
    u, v, _ = g.edge_list(unique=False)
    assert sorted(zip(u.tolist(), v.tolist())) == [(0, 1), (1, 0)]


def test_to_scipy_roundtrip(triangle):
    mat = triangle.to_scipy()
    assert mat.shape == (3, 3)
    assert mat.nnz == 6
    assert (mat != mat.T).nnz == 0


def test_equality():
    a = from_edges([0, 1], [1, 2])
    b = from_edges([1, 0], [2, 1])
    c = from_edges([0], [1], num_vertices=3)
    assert a == b
    assert a != c
    assert a != "not a graph"


def test_repr(triangle):
    text = repr(triangle)
    assert "num_vertices=3" in text
    assert "num_edges=3" in text


def test_invalid_indptr_start():
    with pytest.raises(ValueError, match="start at 0"):
        CSRGraph(
            indptr=np.array([1, 2]),
            indices=np.array([0, 0]),
            weights=np.array([1.0, 1.0]),
        )


def test_invalid_indptr_monotonic():
    with pytest.raises(ValueError, match="non-decreasing"):
        CSRGraph(
            indptr=np.array([0, 2, 1]),
            indices=np.array([0, 1]),
            weights=np.array([1.0, 1.0]),
        )


def test_invalid_mismatched_lengths():
    with pytest.raises(ValueError, match="parallel"):
        CSRGraph(
            indptr=np.array([0, 1]),
            indices=np.array([0]),
            weights=np.array([1.0, 2.0]),
        )


def test_invalid_indptr_total():
    with pytest.raises(ValueError, match="does not match"):
        CSRGraph(
            indptr=np.array([0, 3]),
            indices=np.array([0]),
            weights=np.array([1.0]),
        )


def test_out_of_range_endpoint():
    with pytest.raises(ValueError, match="out of range"):
        CSRGraph(
            indptr=np.array([0, 1]),
            indices=np.array([5]),
            weights=np.array([1.0]),
        )


def test_immutability_contract():
    g = from_edges([0], [1])
    with pytest.raises(Exception):
        g.indptr = np.zeros(1)  # frozen dataclass


@given(csr_graphs())
def test_total_weight_is_sum_of_degrees(g):
    assert g.total_weight == pytest.approx(float(g.weighted_degrees.sum()))


@given(csr_graphs())
def test_num_edges_consistent_with_edge_list(g):
    u, v, _ = g.edge_list(unique=True)
    assert g.num_edges == u.size
    # Cached on first read, so later reads skip the O(E) self-loop scan.
    assert g.__dict__["_num_edges"] == u.size


@given(csr_graphs(weighted=True))
def test_rows_cover_all_stored_edges(g):
    total = sum(g.neighbors(v).size for v in range(g.num_vertices))
    assert total == g.num_stored_edges


@given(csr_graphs())
def test_degrees_match_row_lengths(g):
    for v in range(g.num_vertices):
        assert g.degrees[v] == g.neighbors(v).size
