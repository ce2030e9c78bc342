"""Differential tests for the row store of patched graphs.

:func:`~repro.graph.build.apply_edge_batch` writes only the rows a batch
touches, appending them to a buffer pair that consecutive graphs share,
and compacts into a fresh buffer when the rows do not fit or the parent
was patched already.  Whatever path a batch took, every graph must equal
a :func:`~repro.graph.build.from_edges` rebuild of its edge set: rows,
flat arrays and every cached derived value.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.graph.build import apply_edge_batch, from_edges

_DERIVED = (
    "vertex_of_edge",
    "weighted_degrees",
    "num_edges",
    "total_weight",
    "canonical",
    "integral_weights",
)

#: Weights whose every sum stays exact in float64, so a patched weight
#: and a rebuilt one agree bit for bit; 0.5 and 1.5 keep
#: ``integral_weights`` false on some graphs.
_WEIGHTS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])


def _rebuild(edges: dict, n: int):
    keys = sorted(edges)
    return from_edges(
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([edges[k] for k in keys], dtype=np.float64),
        num_vertices=n,
    )


def _apply(graph, edges: dict, n: int, adds, removes):
    """Patch ``graph`` and the ``edges`` model alike; returns the new graph."""
    removes = sorted({(min(u, v), max(u, v)) for u, v in removes} & set(edges))
    for key in removes:
        del edges[key]
    for u, v, w in adds:
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0.0) + w
    add = remove = None
    if adds:
        add = tuple(np.array(side) for side in zip(*adds))
    if removes:
        remove = tuple(np.array(side, dtype=np.int64) for side in zip(*removes))
    out, *_ = apply_edge_batch(graph, add=add, remove=remove)
    return out


def _assert_rows_match(graph, rebuilt) -> None:
    """Each row, read from the row store, equals the rebuild's (no flat read)."""
    pos, owner = graph.gather(np.arange(graph.num_vertices))
    expected = np.repeat(np.arange(rebuilt.num_vertices), rebuilt.degrees)
    assert np.array_equal(owner, expected)
    assert np.array_equal(graph.row_indices[pos], rebuilt.indices)
    assert np.array_equal(graph.row_weights[pos], rebuilt.weights)
    assert graph.num_stored_edges == rebuilt.num_stored_edges


def _assert_equal(graph, rebuilt) -> None:
    """Flat arrays and every derived value (cached or not) equal the rebuild's."""
    for name in _DERIVED:
        value = graph.cached(name)
        if value is not None:
            assert np.array_equal(value, getattr(rebuilt, name)), name
    for name in ("indptr", "indices", "weights", "degrees") + _DERIVED:
        assert np.array_equal(getattr(graph, name), getattr(rebuilt, name)), name


@st.composite
def _chains(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    base = draw(st.lists(st.tuples(vertex, vertex, _WEIGHTS), max_size=30))
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(st.tuples(vertex, vertex, _WEIGHTS), max_size=6),
                st.lists(st.integers(min_value=0, max_value=10**6), max_size=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    slack = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return n, base, batches, slack


@settings(max_examples=60, deadline=None)
@given(_chains())
def test_a_chain_of_batches_equals_its_rebuild_after_every_batch(chain):
    """Appends, full-store compactions, flat builds by runs and by
    splicing the parent's flat arrays: each graph equals its rebuild."""
    n, base, batches, slack = chain
    edges: dict = {}
    for u, v, w in base:
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0.0) + w
    graph = _rebuild(edges, n)
    with mock.patch.object(csr, "_ROW_SLACK", slack):
        for adds, picks, read in batches:
            live = sorted(edges)
            removes = [live[p % len(live)] for p in picks] if live else []
            graph = _apply(graph, edges, n, adds, removes)
            rebuilt = _rebuild(edges, n)
            _assert_rows_match(graph, rebuilt)
            if read:  # a whole-graph read: the next batch sees flat arrays
                _assert_equal(graph, rebuilt)
    _assert_equal(graph, _rebuild(edges, n))


def test_a_full_store_compacts_and_keeps_the_older_graphs():
    edges = {(min(i, (i + 1) % 40), max(i, (i + 1) % 40)): 1.0 for i in range(40)}
    graph = _rebuild(edges, 40)
    history = [(graph, dict(edges))]
    with mock.patch.object(csr, "_ROW_SLACK", 0.1):
        for step in range(30):
            u, v = step % 40, (step * 7 + 3) % 40
            graph = _apply(graph, edges, 40, [(u, v, 1.0)], [])
            history.append((graph, dict(edges)))
    stores = {id(g.row_indices) for g, _ in history}
    assert 2 < len(stores) < len(history)  # appends and compactions both ran
    for old, state in history:  # older graphs read after newer appends
        _assert_equal(old, _rebuild(state, 40))


def test_two_children_of_one_parent_each_equal_their_rebuild():
    base = {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 1.0, (0, 3): 1.0}
    state = dict(base)
    with mock.patch.object(csr, "_ROW_SLACK", 4.0):  # room for every append
        parent = _apply(_rebuild(base, 5), state, 5, [(3, 4, 1.0)], [])
        left_edges, right_edges = dict(state), dict(state)
        left = _apply(parent, left_edges, 5, [(0, 4, 2.0), (1, 1, 1.0)], [(1, 2)])
        right = _apply(parent, right_edges, 5, [(2, 4, 1.0)], [(0, 1)])
        grandchild_edges = dict(left_edges)
        grandchild = _apply(left, grandchild_edges, 5, [(0, 2, 1.0)], [])
    # The first child appended to the parent's store; the second could
    # not (the parent is no longer its newest version) and compacted.
    assert left.row_indices is parent.row_indices
    assert right.row_indices is not parent.row_indices
    assert grandchild.row_indices is parent.row_indices
    for graph, model in (
        (parent, state),
        (left, left_edges),
        (right, right_edges),
        (grandchild, grandchild_edges),
    ):
        _assert_equal(graph, _rebuild(model, 5))


def test_flat_arrays_are_built_on_first_whole_graph_read_only():
    graph = from_edges(np.arange(30), (np.arange(30) + 1) % 30)
    patched, *_ = apply_edge_batch(graph, add=(np.array([0]), np.array([15]), None))
    patched, *_ = apply_edge_batch(patched, add=(np.array([3]), np.array([9]), None))
    assert patched.cached("indices") is None and patched.cached("weights") is None
    assert patched.neighbors(0).tolist() == [1, 15, 29]
    patched.gather(np.array([0, 3]))
    nbytes = patched.nbytes
    assert patched.cached("indices") is None  # row reads and nbytes build nothing
    assert patched.indices.size == patched.num_stored_edges
    assert patched.cached("indices") is not None
    assert patched.nbytes > nbytes  # the flat copies now count too


def test_children_patched_concurrently_from_one_parent_stay_apart():
    """Threads racing to append to one store: the lock lets one child
    append and the rest compact, so no two write the same region."""
    import sys
    import threading

    n = 60
    edges = {(i, (i + 1) % n) if i + 1 < n else (0, n - 1): 1.0 for i in range(n)}
    with mock.patch.object(csr, "_ROW_SLACK", 8.0):  # every child would fit
        parent = _apply(_rebuild(edges, n), edges, n, [(0, 30, 1.0)], [])
        workers = 8
        models = [dict(edges) for _ in range(workers)]
        children = [None] * workers
        barrier = threading.Barrier(workers)

        def patch(i):
            barrier.wait(timeout=10)
            adds = [(i, (i * 7 + 11) % n, 1.0), ((i * 3) % n, (i * 5 + 2) % n, 2.0)]
            children[i] = _apply(parent, models[i], n, adds, [])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=patch, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    appended = [c for c in children if c.row_indices is parent.row_indices]
    assert len(appended) == 1
    _assert_equal(parent, _rebuild({**edges}, n))
    for child, model in zip(children, models):
        _assert_equal(child, _rebuild(model, n))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=40).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.sets(st.integers(0, max(size - 1, 0)), max_size=size),
            st.lists(st.integers(0, size), max_size=8),
        )
    )
)
def test_both_splice_strategies_match_a_reference(case):
    """The run copy (few edits on a long array) and the vectorized
    delete/insert (many edits) agree with a plain list splice."""
    from repro.graph import build

    size, deletions, insertions = case
    array = np.arange(size, dtype=np.int64) * 10
    del_pos = np.array(sorted(deletions), dtype=np.int64)
    ins_pos = np.array(sorted(insertions), dtype=np.int64)
    payload = -1 - np.arange(ins_pos.size, dtype=np.int64)
    expected, k = [], 0
    for pos in range(size + 1):
        while k < ins_pos.size and ins_pos[k] == pos:
            expected.append(int(payload[k]))
            k += 1
        if pos < size and pos not in deletions:
            expected.append(int(array[pos]))
    for threshold in (0, 10**9):  # force the run copy, then the vectorized path
        with mock.patch.object(build, "_SPLICE_RUN_ENTRIES", threshold):
            (out,) = build._splice([array], del_pos, ins_pos, [payload])
        assert out.tolist() == expected, threshold
