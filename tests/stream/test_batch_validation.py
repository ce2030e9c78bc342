"""One batch validator, and what a rejected batch leaves behind.

``repro.graph.build``'s batch canonicaliser is the only place batch
values are checked: ``apply_edge_batch`` (``StreamSession.apply``,
``update_edges``) and ``BatchCoalescer.add_batch`` (the server) both go
through it.  It rejects what a cast would silently change — booleans
and fractional vertex ids — and non-finite weights, which would poison
``2m`` and every later modularity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import apply_edge_batch, update_edges
from repro.graph.generators import caveman
from repro.serve.coalesce import BatchCoalescer
from repro.stream import StreamSession

from .test_session import graphs_with_batches

NAN = float("nan")
INF = float("inf")

BAD_ADDS = {
    "nan weight": ([0], [1], [NAN]),
    "inf weight": ([0, 2], [1, 3], [1.0, INF]),
    "-inf weight": (np.array([0]), np.array([1]), np.array([-INF])),
    "fractional id": ([1.7], [3], None),
    "fractional id array": (np.array([0, 1.5]), np.array([3, 4]), None),
    "nan id": ([NAN], [3], None),
    "boolean id": ([True], [3], None),
    "boolean mixed into ints": ([1, True], [3, 4], None),
    "boolean array": (np.array([True]), np.array([3]), None),
    "string id": (["1"], [3], None),
}

BAD_REMOVES = {
    "fractional id": ([0.5], [1]),
    "boolean id": ([0], [False]),
    "inf id": ([INF], [1]),
}


@pytest.fixture
def graph():
    return caveman(4, 5)[0]


@pytest.mark.parametrize("add", BAD_ADDS.values(), ids=BAD_ADDS.keys())
def test_apply_edge_batch_rejects_bad_adds(graph, add):
    with pytest.raises(ValueError):
        apply_edge_batch(graph, add=add)
    with pytest.raises(ValueError):
        update_edges(graph, add=add)


@pytest.mark.parametrize("remove", BAD_REMOVES.values(), ids=BAD_REMOVES.keys())
def test_apply_edge_batch_rejects_bad_removes(graph, remove):
    with pytest.raises(ValueError):
        apply_edge_batch(graph, remove=remove)


def test_integral_floats_are_vertex_ids(graph):
    exact, *_ = apply_edge_batch(graph, add=([0.0, 2.0], [7.0, 11.0], None))
    ints, *_ = apply_edge_batch(graph, add=([0, 2], [7, 11], None))
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(exact, name), getattr(ints, name))


@pytest.mark.parametrize(
    "batch",
    [{"add": add} for add in BAD_ADDS.values()]
    + [{"remove": remove} for remove in BAD_REMOVES.values()],
    ids=[f"add {k}" for k in BAD_ADDS] + [f"remove {k}" for k in BAD_REMOVES],
)
def test_coalescer_rejects_and_stays_untouched(graph, batch):
    coalescer = BatchCoalescer(graph)
    coalescer.add_batch(add=([0], [7], None))
    with pytest.raises(ValueError):
        coalescer.add_batch(**batch)
    assert coalescer.requests == 1
    add, remove = coalescer.net()
    assert remove is None
    assert (add[0].tolist(), add[1].tolist(), add[2].tolist()) == ([0], [7], [1.0])


def test_nan_weight_never_reaches_the_session(graph):
    session = StreamSession(graph)
    with pytest.raises(ValueError, match="finite"):
        session.apply(add=([0], [7], [NAN]))
    result = session.apply(add=([0], [7], None))
    assert np.isfinite(result.modularity)


@st.composite
def corrupted_batches(draw, graph):
    """A legal batch on ``graph`` with one value a cast would change.

    Without the corruption the batch would apply: the adds are arbitrary
    pairs and the removal (if any) is an existing edge.
    """
    vertex = st.integers(0, graph.num_vertices - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4))
    u, v, w = [a for a, _ in pairs], [b for _, b in pairs], None
    pu, pv, _ = graph.edge_list()
    upper = pu < pv
    remove = None
    if upper.any() and draw(st.booleans()):
        j = draw(st.integers(0, int(upper.sum()) - 1))
        remove = ([int(pu[upper][j])], [int(pv[upper][j])])
    i = draw(st.integers(0, len(u) - 1))
    kinds = ["weight", "fraction", "boolean"] + (["remove"] if remove else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "weight":
        w = [1.0] * len(u)
        w[i] = draw(st.sampled_from([NAN, INF, -INF]))
    elif kind == "fraction":
        u[i] += 0.25
    elif kind == "boolean":
        u[i] = draw(st.booleans())
    else:
        remove = (remove[0], [draw(st.sampled_from([remove[1][0] + 0.5, True]))])
    return (u, v, w), remove


def _state(session):
    graph = session.graph
    return (
        graph.indptr.tobytes(),
        graph.indices.tobytes(),
        graph.weights.tobytes(),
        session.membership.tobytes(),
        session.modularity,
        session.batches,
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rejected_batch_leaves_session_bit_identical(data):
    graph, add, remove = data.draw(graphs_with_batches())
    session = StreamSession(graph, screening="exact")
    twin = StreamSession(graph, screening="exact")
    if add is not None or remove is not None:
        session.apply(add=add, remove=remove)
        twin.apply(add=add, remove=remove)
    bad_add, bad_remove = data.draw(corrupted_batches(session.graph))
    before = _state(session)
    with pytest.raises(ValueError):
        session.apply(add=bad_add, remove=bad_remove)
    assert _state(session) == before
    # ...and the session carries on exactly like one that never saw it.
    follow = ([0], [session.graph.num_vertices - 1], None)
    assert _state(session) == _state(twin)
    a = session.apply(add=follow)
    b = twin.apply(add=follow)
    assert np.array_equal(a.membership, b.membership)
    assert a.modularity == b.modularity
    assert _state(session) == _state(twin)
