"""Differential tests for the state a stream batch carries forward.

Each batch hands three things to the next instead of recomputing them
over every edge, and each must equal the recomputation exactly:

* the patched graph (:func:`~repro.graph.build.apply_edge_batch`): its
  arrays and every cached derived value equal those of a fresh
  :class:`~repro.graph.csr.CSRGraph` built from copies of its arrays;
* the carried level-0 contraction
  (:class:`~repro.core.aggregate.LabelContraction`): it equals
  :func:`~repro.core.aggregate.aggregate_bincount` of the session's graph
  and membership;
* the reported modularity: it equals ``_partition_modularity`` of the
  final membership, bit for bit.

Inputs mix deletions, self-loops, zero-weight and negative integral
entries (where the exact-sum shortcuts apply) with float weights (where
they must not).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import aggregate_bincount
from repro.core.mod_opt import _partition_modularity
from repro.graph.build import apply_edge_batch, from_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators import caveman
from repro.serve import restore_session, snapshot_session
from repro.stream import StreamConfig, StreamSession
from repro.stream import session as session_module

_CACHED = (
    "vertex_of_edge",
    "weighted_degrees",
    "num_edges",
    "total_weight",
    "canonical",
    "integral_weights",
)


def _assert_graph_matches_fresh(graph: CSRGraph) -> None:
    """Arrays and cached values equal a freshly validated copy's."""
    carried = {name: graph.cached(name) for name in _CACHED}
    fresh = CSRGraph(graph.indptr.copy(), graph.indices.copy(), graph.weights.copy())
    for name, value in carried.items():
        if value is None:
            continue
        expected = getattr(fresh, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, expected), name
        else:
            assert value == expected, name
    for name in ("indptr", "indices", "weights", "degrees") + _CACHED:
        assert np.array_equal(getattr(graph, name), getattr(fresh, name)), name


def _assert_carry_matches_contraction(session: StreamSession) -> None:
    """The carried contraction equals aggregate_bincount's, when kept."""
    if session._carry is None:
        return
    graph, labels, contraction = session._carry
    if graph is not session.graph or labels is not session.membership:
        return  # stale: the next batch drops it
    carried = contraction.contract(graph, labels)
    expected = aggregate_bincount(graph, labels, session.config.louvain)
    assert carried.graph == expected.graph
    assert np.array_equal(carried.dense_map, expected.dense_map)


def _assert_q_exact(session: StreamSession, result) -> None:
    graph = session.graph
    if graph.total_weight == 0.0:
        return
    exact = _partition_modularity(
        result.membership,
        (graph.vertex_of_edge, graph.indices, graph.weights),
        graph.weighted_degrees,
        graph.total_weight,
        session.config.louvain.resolution,
    )
    # An empty batch repeats the previous result's Q, which a full run
    # may have computed another way.
    batch_changed = result.edges_added or result.edges_removed
    if result.mode == "stream" and session.config.screening == "local" and batch_changed:
        assert result.modularity == exact
    else:
        assert result.modularity == pytest.approx(exact, abs=1e-9)


@st.composite
def _sessions(draw):
    """(graph, config, integral, batch-drawing seed, carry cutoff)."""
    n = draw(st.integers(min_value=4, max_value=24))
    num_edges = draw(st.integers(min_value=n, max_value=3 * n))
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.integers(0, n, num_edges)
    v = rng.integers(0, n, num_edges)
    w = rng.integers(1, 4, num_edges).astype(float) if integral else rng.random(num_edges) + 0.5
    graph = from_edges(u, v, w, num_vertices=n)
    config = StreamConfig(
        algo=draw(st.sampled_from(["louvain", "louvain", "leiden"])),
        screening=draw(st.sampled_from(["local", "local", "exact"])),
        frontier_scope=draw(st.sampled_from(["community", "endpoints"])),
        frontier_fraction_limit=draw(st.sampled_from([0.5, 1.0])),
        full_rerun_interval=draw(st.sampled_from([0, 0, 3])),
    )
    # 0 always patches the carried contraction, whatever the movers' rows.
    factor = draw(st.sampled_from([0, session_module._CARRY_EDGE_FACTOR]))
    return graph, config, integral, int(rng.integers(0, 2**32 - 1)), factor


def _batches(graph: CSRGraph, integral: bool, seed: int, count: int):
    """Batches drawn against the evolving edge set (removals exist)."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    edges = {(int(a), int(b)) for a, b in zip(*graph.edge_list()[:2])}
    for _ in range(count):
        k = int(rng.integers(0, 6))
        au = rng.integers(0, n, k)
        av = np.where(rng.random(k) < 0.2, au, rng.integers(0, n, k))  # self-loops
        if integral:
            aw = rng.integers(-1, 4, k).astype(float)  # zero and negative entries
        else:
            aw = rng.random(k) * 2.0 - 0.25
        present = sorted(edges)
        r = int(rng.integers(0, min(3, len(present)) + 1))
        picks = rng.choice(len(present), r, replace=False) if r else []
        removed = [present[i] for i in picks]
        for pair in removed:
            edges.discard(pair)
        for a, b in zip(au.tolist(), av.tolist()):
            edges.add((min(a, b), max(a, b)))
        ru = np.array([p[1] for p in removed], dtype=np.int64)  # reversed on purpose
        rv = np.array([p[0] for p in removed], dtype=np.int64)
        yield {"add": (au, av, aw), "remove": (ru, rv)}


@settings(max_examples=60, deadline=None)
@given(_sessions())
def test_carried_state_equals_recomputation(case):
    graph, config, integral, seed, factor = case
    with mock.patch.object(session_module, "_CARRY_EDGE_FACTOR", factor):
        session = StreamSession(graph, config)
        for batch in _batches(graph, integral, seed, 8):
            result = session.apply(**batch)
            _assert_graph_matches_fresh(session.graph)
            _assert_carry_matches_contraction(session)
            _assert_q_exact(session, result)
            if session._carry is not None:
                # Kept only where its patched sums are exact.
                assert session.graph.integral_weights
                assert config.screening == "local" and config.algo == "louvain"


def test_carry_is_kept_and_patched_on_a_louvain_local_session():
    """The carried path actually runs: integral weights, local screening."""
    graph, _ = caveman(8, 6)
    session = StreamSession(graph, frontier_scope="endpoints")
    modes = []
    for batch in _batches(graph, True, 5, 6):
        result = session.apply(**batch)
        modes.append(result.mode)
        assert session._carry is not None
        assert session._carry[0] is session.graph
        _assert_carry_matches_contraction(session)
        _assert_q_exact(session, result)
    assert modes.count("stream") == len(modes)


@settings(max_examples=25, deadline=None)
@given(_sessions(), st.integers(min_value=0, max_value=5))
def test_snapshot_restore_apply_is_bit_identical(tmp_path_factory, case, cut):
    graph, config, integral, seed, _ = case
    batches = list(_batches(graph, integral, seed, 6))
    original = StreamSession(graph, config)
    for batch in batches[:cut]:
        original.apply(**batch)
    base = tmp_path_factory.mktemp("snap") / "s"
    snapshot_session(original, base)
    restored = restore_session(base)
    assert restored._carry is None
    for batch in batches[cut:]:
        a = original.apply(**batch)
        b = restored.apply(**batch)
        assert np.array_equal(a.membership, b.membership)
        assert a.modularity == b.modularity
        assert a.mode == b.mode
        assert a.sweeps_per_level == b.sweeps_per_level
        assert a.sweep_stats == b.sweep_stats
        assert original.graph == restored.graph


def test_apply_edge_batch_rejects_a_non_canonical_graph():
    parallel = CSRGraph(
        indptr=np.array([0, 2, 3]),
        indices=np.array([1, 1, 0]),
        weights=np.ones(3),
    )
    unsorted = CSRGraph(
        indptr=np.array([0, 2, 3, 4]),
        indices=np.array([2, 1, 0, 0]),
        weights=np.ones(4),
    )
    for graph in (parallel, unsorted):
        assert not graph.canonical
        with pytest.raises(ValueError, match="canonical graph"):
            apply_edge_batch(graph, add=([0], [1], None))
