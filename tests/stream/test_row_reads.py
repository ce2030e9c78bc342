"""A stream batch reads rows, not the whole graph.

A local-screening Louvain batch reads the patched graph through its row
store (:meth:`~repro.graph.csr.CSRGraph.gather`) and never builds the
flat ``indices``/``weights`` — save the session's first batch, whose
carried contraction is built by one whole-graph pass.  Sessions whose
batches read the whole graph (Leiden's refinement, exact screening)
build them, and every session's results equal those of a session whose
graphs had their flat arrays built eagerly.
"""

from unittest import mock

import numpy as np
import pytest

from repro.graph.generators import caveman
from repro.stream import StreamConfig, StreamSession
from repro.stream import session as session_module


def _session(**overrides) -> StreamSession:
    # Small caves: a two-edge batch stays incremental (mode "stream").
    graph, _ = caveman(20, 8)
    return StreamSession(graph, StreamConfig(**overrides))


def _batch(session: StreamSession) -> dict:
    """Two new bridges, and one removal of a bridge an earlier batch added."""
    n = session.graph.num_vertices
    u = np.array([0, n // 2]) + session.batches
    batch = {"add": (u, (u + n // 3) % n, None)}
    if session.batches:
        v = np.array([session.batches - 1])
        batch["remove"] = (v, (v + n // 3) % n)
    return batch


def _read(session: StreamSession) -> None:
    """The partition reads a server answers between batches."""
    session.community_of(3)
    session.members(session.community_of(0))
    session.top_k_communities(3, by="volume")
    session.top_k_communities(3, by="size")


@pytest.mark.parametrize(
    "overrides, built",
    [
        ({}, False),
        ({"frontier_scope": "endpoints"}, False),
        ({"algo": "leiden"}, True),
        ({"screening": "exact"}, True),
    ],
)
def test_flat_arrays_are_built_only_where_a_batch_reads_the_whole_graph(
    overrides, built
):
    session = _session(**overrides)
    eager = _session(**overrides)
    real = session_module.apply_edge_batch

    def patched_with_flat_arrays(graph, **batch):
        out = real(graph, **batch)
        out[0].indices  # noqa: B018 - builds the flat arrays
        return out

    with mock.patch.object(
        session_module, "apply_edge_batch", patched_with_flat_arrays
    ):
        for _ in range(5):
            eager.apply(**_batch(eager))
    session.apply(**_batch(session))  # builds the carried contraction
    for _ in range(4):
        result = session.apply(**_batch(session))
        assert result.mode == "stream"
        _read(session)
        graph = session.graph
        assert (graph.cached("indices") is not None) == built
        assert (graph.cached("weights") is not None) == built
    assert np.array_equal(session.membership, eager.membership)
    assert session.modularity == eager.modularity
    assert np.array_equal(graph.weighted_degrees, eager.graph.weighted_degrees)
    assert graph == eager.graph
