"""The read view a StreamSession publishes, and what a batch patches.

A session publishes an immutable :class:`~repro.stream.PartitionView`
at the end of every state change; partition queries answer from it.
These tests pin what the serve layer's lock-free reads rely on: a view
never changes after it is published, every state change publishes one,
and a failed apply publishes none.
"""

from unittest import mock

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import caveman
from repro.stream import PartitionView, StreamConfig, StreamSession
from repro.stream import session as session_module


def _session(**overrides) -> StreamSession:
    # Small caves: a two-edge batch stays incremental (mode "stream").
    graph, _ = caveman(20, 8)
    return StreamSession(graph, StreamConfig(**overrides))


def _bridge(session: StreamSession) -> dict:
    """A batch inserting two edges no earlier batch added (a structural
    change, not a weight update)."""
    n = session.graph.num_vertices
    u = np.array([0, n // 2]) + session.batches
    return {"add": (u, (u + n // 3) % n, None)}


def test_a_view_taken_before_apply_is_unchanged_after_it():
    session = _session()
    before = session.view
    membership = before.membership.copy()
    degrees = before.graph.weighted_degrees.copy()
    for _ in range(3):
        session.apply(**_bridge(session))
    assert session.view is not before
    assert session.view.batch == 3
    assert before.batch == 0
    assert np.array_equal(before.membership, membership)
    assert np.array_equal(before.graph.weighted_degrees, degrees)
    # Reads through the old view answer from the old state.
    assert session.members(0, view=before).tolist() == np.flatnonzero(
        membership == 0
    ).tolist()


def test_published_arrays_are_read_only():
    session = _session()
    session.apply(**_bridge(session))
    view = session.view
    assert view.membership is session.membership
    with pytest.raises(ValueError):
        view.membership[0] = 1
    with pytest.raises(ValueError):
        view.graph.weighted_degrees[0] = 1.0
    with pytest.raises(ValueError):
        session.membership += 1


def test_arrays_that_do_not_own_their_data_are_published_as_copies():
    built, _ = caveman(4, 5)
    degrees = np.concatenate((built.weighted_degrees, [0.0]))
    graph = CSRGraph.trusted(
        built.indptr, built.indices, built.weights, weighted_degrees=degrees[:-1]
    )
    first = StreamSession(graph)
    assert first.view.graph.weighted_degrees.base is None
    assert not first.view.graph.weighted_degrees.flags.writeable
    base = np.concatenate((first.membership, [0]))
    resumed = StreamSession.resume(
        graph, first.config, result=first.result, membership=base[:-1]
    )
    assert resumed.view.membership.base is None
    assert resumed.view.membership is resumed.membership
    owned = first.membership.copy()
    StreamSession.resume(graph, first.config, result=first.result, membership=owned)
    assert owned.flags.writeable  # copied, not frozen in place
    base[0] += 1  # the caller's buffers stay their own
    degrees[0] += 1.0
    assert resumed.community_of(0) == first.community_of(0)
    assert resumed.view.graph.weighted_degrees[0] == built.weighted_degrees[0]


def test_construction_resume_and_the_empty_batch_publish_a_view():
    session = _session()
    assert isinstance(session.view, PartitionView)
    assert session.view.batch == 0
    assert session.view.modularity == session.modularity

    resumed = StreamSession.resume(
        session.graph, session.config, result=session.result, batches=7
    )
    assert resumed.view.batch == 7
    assert resumed.view.graph is session.graph
    assert np.array_equal(resumed.view.membership, session.membership)

    before = session.view
    top = session.top_k_communities(3, by="volume")
    result = session.apply(add=(np.empty(0, np.int64), np.empty(0, np.int64), None))
    assert result.batch == 1
    assert session.view is not before
    assert session.view.batch == 1
    assert session.view.membership is before.membership
    assert session.top_k_communities(3, by="volume") == top


def test_a_session_resumed_from_another_shares_its_read_only_arrays():
    first = _session()
    first.apply(**_bridge(first))
    second = StreamSession.resume(first.graph, first.config, result=first.result)
    assert second.view.membership is first.view.membership
    assert not second.view.membership.flags.writeable
    for by in ("size", "volume"):
        assert second.top_k_communities(5, by=by) == first.top_k_communities(5, by=by)


def test_a_failed_apply_leaves_the_previous_view():
    session = _session()
    session.apply(**_bridge(session))
    before = session.view
    graph = session.graph
    with pytest.raises(ValueError, match="non-existent"):
        session.apply(remove=(np.array([0]), np.array([graph.num_vertices - 1])))
    assert session.view is before
    assert session.view.batch == 1


def test_reads_answer_from_the_published_view():
    session = _session()
    session.apply(**_bridge(session))
    view = session.view
    for v in range(view.graph.num_vertices):
        assert session.community_of(v) == int(view.membership[v])
    top = session.top_k_communities(3, by="volume")
    for label, volume in top:
        members = np.flatnonzero(view.membership == label)
        assert volume == pytest.approx(view.graph.weighted_degrees[members].sum())


# --------------------------------------------------------------------- #
# vertex_of_edge: left lazy by the patch, rebuilt only where it is read
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "overrides, read",
    [
        ({}, False),
        ({"frontier_scope": "endpoints"}, False),
        ({"algo": "leiden"}, True),
        ({"screening": "exact"}, True),
    ],
)
def test_vertex_of_edge_is_built_only_where_a_batch_reads_it(overrides, read):
    session = _session(**overrides)
    eager = _session(**overrides)
    real = session_module.apply_edge_batch

    def patched_with_cache(graph, **batch):
        out = real(graph, **batch)
        out[0].vertex_of_edge  # noqa: B018 - fills the cache
        return out

    with mock.patch.object(session_module, "apply_edge_batch", patched_with_cache):
        for _ in range(3):
            eager.apply(**_bridge(eager))
    for _ in range(3):
        result = session.apply(**_bridge(session))
        assert result.mode == "stream"
    graph = session.graph
    assert (graph.cached("vertex_of_edge") is not None) == read
    assert np.array_equal(session.membership, eager.membership)
    assert session.modularity == eager.modularity
    expected = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    assert np.array_equal(graph.vertex_of_edge, expected)
