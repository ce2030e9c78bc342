"""Tests for repro.graph.build."""

import numpy as np
import pytest
from hypothesis import given

from repro.graph.build import (
    empty_graph,
    ensure_connected_relabelled,
    from_directed_entries,
    from_edges,
    from_networkx,
    from_scipy,
    induced_subgraph,
    relabel,
)
from repro.graph.validation import validate

from ..conftest import csr_graphs, edge_lists


def test_from_edges_basic():
    g = from_edges([0, 1], [1, 2])
    assert g.num_vertices == 3
    assert g.num_edges == 2


def test_from_edges_symmetrizes():
    g = from_edges([0], [1])
    assert g.neighbors(1).tolist() == [0]


def test_from_edges_merges_duplicates():
    g = from_edges([0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0])
    assert g.num_edges == 1
    assert g.neighbor_weights(0).tolist() == [7.0]


def test_from_edges_merges_reverse_duplicates():
    g = from_edges([0, 1], [1, 0], [1.0, 1.0])
    assert g.num_edges == 1
    assert g.neighbor_weights(0).tolist() == [2.0]


def test_from_edges_default_weights():
    g = from_edges([0], [1])
    assert g.weights.tolist() == [1.0, 1.0]


def test_from_edges_num_vertices_override():
    g = from_edges([0], [1], num_vertices=5)
    assert g.num_vertices == 5
    assert g.degrees.tolist() == [1, 1, 0, 0, 0]


def test_from_edges_empty():
    g = from_edges([], [], num_vertices=4)
    assert g.num_vertices == 4
    assert g.num_edges == 0


def test_from_edges_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        from_edges([-1], [0])


def test_from_edges_rejects_too_small_n():
    with pytest.raises(ValueError, match="too small"):
        from_edges([0], [5], num_vertices=3)


def test_from_edges_rejects_mismatched():
    with pytest.raises(ValueError, match="same length"):
        from_edges([0, 1], [1])
    with pytest.raises(ValueError, match="length"):
        from_edges([0], [1], [1.0, 2.0])


@pytest.mark.parametrize(
    "u", [[1.7], [True], [float("nan")], np.array([1.5]), np.array([True])]
)
def test_from_edges_rejects_what_a_cast_would_change(u):
    # int64 casts would silently turn each of these into vertex 0 or 1.
    with pytest.raises(ValueError, match="edge endpoints"):
        from_edges(u, [2])
    with pytest.raises(ValueError, match="edge endpoints"):
        from_edges([2], u)


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
def test_from_edges_rejects_non_finite_weights(w):
    # One NaN or inf weight would poison 2m and every modularity.
    with pytest.raises(ValueError, match="edge weights must be finite"):
        from_edges([0, 1], [1, 2], [1.0, w])


def test_from_edges_integer_lists_and_arrays_build_the_same_graph():
    u, v, w = [0, 1, 2, 2], [1, 2, 0, 3], [1.0, 2.0, 3.0, 4.0]
    expected = from_edges(np.array(u), np.array(v), np.array(w))
    for uu, vv in [
        (u, v),
        (np.array(u, dtype=np.int32), np.array(v, dtype=np.uint16)),
        (np.array(u, dtype=float), np.array(v, dtype=float)),  # integral floats
    ]:
        g = from_edges(uu, vv, w)
        assert g == expected
        assert g.indices.dtype == np.int64


def test_from_edges_self_loop():
    g = from_edges([2], [2], [3.5], num_vertices=3)
    assert g.self_loop_weight(2) == 3.5
    assert g.num_stored_edges == 1


def test_from_directed_entries_roundtrip():
    g = from_edges([0, 1, 2], [1, 2, 2], [1.0, 2.0, 3.0])
    u, v, w = g.edge_list(unique=False)
    g2 = from_directed_entries(u, v, w, g.num_vertices)
    assert g2 == g


def test_from_directed_entries_rejects_mismatch():
    with pytest.raises(ValueError, match="parallel"):
        from_directed_entries(
            np.array([0]), np.array([1, 2]), np.array([1.0]), 3
        )


def test_from_scipy():
    from scipy.sparse import csr_matrix

    mat = csr_matrix(np.array([[0.0, 2.0], [2.0, 1.0]]))
    g = from_scipy(mat)
    assert g.num_vertices == 2
    assert g.self_loop_weight(1) == 1.0
    assert g.neighbor_weights(0).tolist() == [2.0]


def test_from_scipy_rejects_rectangular():
    from scipy.sparse import csr_matrix

    with pytest.raises(ValueError, match="square"):
        from_scipy(csr_matrix(np.ones((2, 3))))


def test_from_networkx():
    nx = pytest.importorskip("networkx")
    nxg = nx.Graph()
    nxg.add_edge("a", "b", weight=2.0)
    nxg.add_edge("b", "c")
    g = from_networkx(nxg)
    assert g.num_vertices == 3
    assert g.num_edges == 2
    assert g.total_weight == pytest.approx(2 * (2.0 + 1.0))


def test_empty_graph():
    g = empty_graph(7)
    assert g.num_vertices == 7
    assert g.num_edges == 0


def test_relabel_identity(triangle):
    g = relabel(triangle, np.array([0, 1, 2]))
    assert g == triangle


def test_relabel_swap():
    g = from_edges([0], [1], [5.0], num_vertices=3)
    swapped = relabel(g, np.array([2, 1, 0]))
    assert swapped.neighbor_weights(2).tolist() == [5.0]
    assert swapped.neighbors(2).tolist() == [1]


def test_relabel_rejects_non_bijection(triangle):
    with pytest.raises(ValueError, match="bijection"):
        relabel(triangle, np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="one entry"):
        relabel(triangle, np.array([0, 1]))


def test_induced_subgraph():
    g = from_edges([0, 1, 2, 0], [1, 2, 3, 3])
    sub = induced_subgraph(g, np.array([0, 1, 3]))
    # kept edges: (0,1) and (0,3)->(0,2 in new ids)
    assert sub.num_vertices == 3
    assert sub.num_edges == 2
    assert sub.neighbors(0).tolist() == [1, 2]


def test_induced_subgraph_keeps_weights():
    g = from_edges([0, 1], [1, 2], [4.0, 9.0])
    sub = induced_subgraph(g, np.array([1, 2]))
    assert sub.neighbor_weights(0).tolist() == [9.0]


def test_ensure_connected_picks_largest():
    # component {0,1,2} and component {3,4}
    g = from_edges([0, 1, 3], [1, 2, 4])
    largest = ensure_connected_relabelled(g)
    assert largest.num_vertices == 3
    assert largest.num_edges == 2


def test_ensure_connected_noop_when_connected(triangle):
    assert ensure_connected_relabelled(triangle) == triangle


@given(edge_lists(weighted=True))
def test_from_edges_always_canonical(data):
    us, vs, ws, n = data
    g = from_edges(us, vs, ws, num_vertices=n)
    validate(g)


@given(edge_lists(weighted=True))
def test_from_edges_preserves_total_weight(data):
    us, vs, ws, n = data
    g = from_edges(us, vs, ws, num_vertices=n)
    loops = sum(w for u, v, w in zip(us, vs, ws) if u == v)
    offdiag = sum(w for u, v, w in zip(us, vs, ws) if u != v)
    assert g.total_weight == pytest.approx(2 * offdiag + loops)


@given(csr_graphs(weighted=True))
def test_directed_entries_identity(g):
    u, v, w = g.edge_list(unique=False)
    assert from_directed_entries(u, v, w, g.num_vertices) == g


def test_update_edges_add():
    from repro.graph.build import update_edges

    g = from_edges([0], [1], num_vertices=4)
    g2 = update_edges(g, add=(np.array([1, 2]), np.array([2, 3]), None))
    assert g2.num_edges == 3
    assert g2.num_vertices == 4


def test_update_edges_add_sums_weights():
    from repro.graph.build import update_edges

    g = from_edges([0], [1], [2.0])
    g2 = update_edges(g, add=(np.array([0]), np.array([1]), np.array([3.0])))
    assert g2.neighbor_weights(0).tolist() == [5.0]


def test_update_edges_remove():
    from repro.graph.build import update_edges

    g = from_edges([0, 1, 2], [1, 2, 0])
    g2 = update_edges(g, remove=(np.array([1]), np.array([0])))  # any order
    assert g2.num_edges == 2
    assert 1 not in g2.neighbors(0)


def test_update_edges_remove_missing_raises():
    from repro.graph.build import update_edges

    g = from_edges([0], [1], num_vertices=3)
    with pytest.raises(ValueError, match="non-existent edge"):
        update_edges(g, remove=(np.array([1]), np.array([2])))


def test_update_edges_duplicate_adds_merge():
    from repro.graph.build import update_edges

    g = from_edges([0], [1], [1.0], num_vertices=3)
    # The same pair three times in one batch (both orientations) merges
    # into a single +6.0 before it is applied.
    g2 = update_edges(
        g,
        add=(np.array([0, 1, 0]), np.array([1, 0, 1]), np.array([1.0, 2.0, 3.0])),
    )
    assert g2.neighbor_weights(0).tolist() == [7.0]
    assert g2.neighbor_weights(1).tolist() == [7.0]
    # A brand-new pair duplicated in the batch appears once, merged.
    g3 = update_edges(
        g, add=(np.array([1, 2]), np.array([2, 1]), np.array([4.0, 5.0]))
    )
    assert g3.num_edges == 2
    assert g3.neighbor_weights(2).tolist() == [9.0]


def test_update_edges_remove_weighted_both_directions():
    from repro.graph.build import update_edges

    g = from_edges([0, 1], [1, 2], [5.0, 7.0])
    # The same undirected edge named in both directions deletes once.
    g2 = update_edges(g, remove=(np.array([0, 1]), np.array([1, 0])))
    assert g2.num_edges == 1
    assert g2.neighbors(0).tolist() == []
    assert g2.neighbors(1).tolist() == [2]
    assert g2.neighbor_weights(1).tolist() == [7.0]


def test_update_edges_remove_then_add_same_pair():
    from repro.graph.build import update_edges

    g = from_edges([0], [1], [5.0])
    # remove+add of the same pair in one batch = exactly the added weight.
    g2 = update_edges(
        g,
        add=(np.array([0]), np.array([1]), np.array([2.0])),
        remove=(np.array([1]), np.array([0])),
    )
    assert g2.neighbor_weights(0).tolist() == [2.0]


def test_apply_edge_batch_reports_deltas():
    from repro.graph.build import apply_edge_batch

    g = from_edges([0, 1], [1, 2], [1.0, 4.0])
    g2, du, dv, dw = apply_edge_batch(
        g,
        add=(np.array([0]), np.array([2]), np.array([3.0])),
        remove=(np.array([1]), np.array([2])),
    )
    pairs = sorted(zip(du.tolist(), dv.tolist(), dw.tolist()))
    assert pairs == [(0, 2, 3.0), (1, 2, -4.0)]
    assert g2.num_edges == 2


def test_apply_edge_batch_empty_is_identity():
    from repro.graph.build import apply_edge_batch

    g = from_edges([0, 1], [1, 2])
    g2, du, dv, dw = apply_edge_batch(g)
    assert g2 == g
    assert du.size == 0 and dv.size == 0 and dw.size == 0


@given(
    csr_graphs(weighted=True, min_edges=1),
    edge_lists(max_vertices=8, max_edges=12, weighted=True),
)
def test_apply_edge_batch_matches_rebuild(g, batch):
    """Differential: patching the CSR arrays ≡ rebuilding from edges."""
    from repro.graph.build import apply_edge_batch

    bu, bv, bw, _ = batch
    bu = np.asarray(bu, dtype=np.int64) % g.num_vertices
    bv = np.asarray(bv, dtype=np.int64) % g.num_vertices
    bw = np.abs(np.asarray(bw, dtype=np.float64)) + 0.5
    # Remove a prefix of the existing edges, add the drawn batch.
    eu, ev, ew = g.edge_list(unique=True)
    num_remove = min(2, eu.size)
    remove = (eu[:num_remove], ev[:num_remove])
    add = (bu, bv, bw) if bu.size else None

    g2, du, dv, dw = apply_edge_batch(g, add=add, remove=remove)
    validate(g2)

    # Rebuild from scratch: surviving old edges + the batch (merged).
    old = {}
    for u, v, w in zip(eu.tolist(), ev.tolist(), ew.tolist()):
        old[(u, v)] = w
    for u, v in zip(*(np.asarray(a).tolist() for a in remove)):
        old.pop((min(u, v), max(u, v)), None)
    merged = dict(old)
    for u, v, w in zip(bu.tolist(), bv.tolist(), bw.tolist()):
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + w
    ru = np.array([p[0] for p in merged], dtype=np.int64)
    rv = np.array([p[1] for p in merged], dtype=np.int64)
    rw = np.array(list(merged.values()), dtype=np.float64)
    rebuilt = from_edges(ru, rv, rw, num_vertices=g.num_vertices)

    assert np.array_equal(g2.indptr, rebuilt.indptr)
    assert np.array_equal(g2.indices, rebuilt.indices)
    np.testing.assert_allclose(g2.weights, rebuilt.weights)

    # Deltas name every touched pair exactly once, canonically ordered.
    assert np.all(du <= dv)
    keys = du * g.num_vertices + dv
    assert np.all(np.diff(keys) > 0)


def test_update_edges_add_and_remove():
    from repro.graph.build import update_edges

    g = from_edges([0, 1], [1, 2])
    g2 = update_edges(
        g,
        add=(np.array([0]), np.array([2]), None),
        remove=(np.array([0]), np.array([1])),
    )
    assert sorted(map(tuple, zip(*g2.edge_list(unique=True)[:2]))) == [
        (0, 2),
        (1, 2),
    ]


def test_update_edges_validates_range():
    from repro.graph.build import update_edges

    g = from_edges([0], [1])
    with pytest.raises(ValueError):
        update_edges(g, add=(np.array([0]), np.array([9]), None))
    with pytest.raises(ValueError):
        update_edges(g, remove=(np.array([0]), np.array([9])))
