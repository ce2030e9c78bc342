"""Local screening's frontier-sized sweep against a per-bucket reference.

A ``screening="local"`` sweep buckets only its active vertices and
scores every bucket in one ``compute_moves_vectorized`` call; from the
sweep's first commit on, the later buckets are rescored one by one.  The
reference below is the plain form of the same sweep: every bucket
extracted from the active mask and scored on its own at its turn.  The
two must agree bit for bit — labels, Q, and every sweep's
``moves_per_bucket`` and ``frontier_size`` — on sessions whose batches
move vertices.

The coarse levels of a stream batch are dropped without optimizing when
:func:`~repro.core.mod_opt.singletons_can_move` says no vertex leaves
its singleton; the second half pins that test against
:func:`~repro.core.mod_opt.modularity_optimization`.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mod_opt
from repro.core.buckets import bucket_index
from repro.core.compute_move import compute_moves_vectorized
from repro.core.config import GPULouvainConfig
from repro.core.mod_opt import (
    _modularity_from,
    _sweep_internal_delta,
    modularity_optimization,
    singletons_can_move,
)
from repro.gpu.thrust import gather_rows
from repro.graph.build import from_edges
from repro.graph.generators import caveman
from repro.stream import StreamSession
from repro.stream import session as session_module

from ..conftest import csr_graphs


def _reference_local(graph, config, threshold, labels, frontier, expansion, internal):
    """Local screening with one scoring call per bucket at its turn.

    Returns ``(labels, Q, [(moves_per_bucket, frontier_size), ...])``.
    Q is tracked as the optimizer tracks it (movers' rows per sweep, an
    edge scan every ``exact_q_interval`` sweeps and at the end unless
    the weights are integral), so the sweep-stop decisions match too.
    """
    n = graph.num_vertices
    k = graph.weighted_degrees
    two_m = graph.total_weight
    comm = np.array(labels, dtype=np.int64)
    if n == 0 or two_m == 0.0:
        return comm, 0.0, []
    res = config.resolution
    bounds = config.degree_bucket_bounds
    vbucket = bucket_index(graph.degrees, bounds)
    active = np.zeros(n, dtype=bool)
    active[frontier] = True
    active &= graph.degrees > 0
    volumes = np.bincount(comm, weights=k, minlength=n)
    sizes = np.bincount(comm, minlength=n)

    def scan() -> float:
        same = comm[graph.vertex_of_edge] == comm[graph.indices]
        return float(graph.weights[same].sum())

    if internal is None:
        internal = scan()
    q = internal / two_m - res * float(np.square(volumes).sum()) / (two_m * two_m)
    sweeps: list[tuple[list[int], int]] = []
    last_exact = False
    while len(sweeps) < config.max_sweeps_per_level and active.any():
        before = comm.copy()
        moves = [0] * (len(bounds) + 1)
        scored = 0
        for b in range(len(bounds) + 1):
            members = np.flatnonzero(active & (vbucket == b))
            if members.size == 0:
                continue
            scored += int(members.size)
            active[members] = False
            proposed = compute_moves_vectorized(
                graph, comm, volumes, sizes, members, k=k,
                singleton_constraint=config.singleton_constraint, resolution=res,
            )
            changed = proposed != comm[members]
            if not changed.any():
                continue
            movers = members[changed]
            old = comm[movers]
            new = proposed[changed]
            comm[movers] = new
            np.add.at(volumes, old, -k[movers])
            np.add.at(volumes, new, k[movers])
            np.add.at(sizes, old, -1)
            np.add.at(sizes, new, 1)
            moves[b] = int(movers.size)
            pos, _ = gather_rows(graph.indptr, movers)
            active[graph.indices[pos]] = True
            if expansion == "community":
                touched = np.zeros(n, dtype=bool)
                touched[old] = True
                touched[new] = True
                active |= touched[comm]
            else:
                active[movers] = True
        sweeps.append((moves, scored))
        moved = np.flatnonzero(comm != before)
        if moved.size:
            if 2 * int(graph.degrees[moved].sum()) >= graph.num_stored_edges:
                internal = scan()
            else:
                internal += _sweep_internal_delta(
                    graph, before, comm, moved, np.zeros(n, dtype=bool)
                )
        new_q = internal / two_m - res * float(np.square(volumes).sum()) / (two_m * two_m)
        last_exact = len(sweeps) % config.exact_q_interval == 0
        if last_exact:
            internal = scan()
            new_q = _modularity_from(internal, comm, k, two_m, res)
        gain = new_q - q
        q = new_q
        if sum(moves) == 0 or gain < threshold:
            break
    if sweeps and not last_exact:
        if not graph.integral_weights:
            internal = scan()
        q = _modularity_from(internal, comm, k, two_m, res)
    return comm, q, sweeps


class _Recorder:
    """Wraps the session's level-0 optimizer: records every call and the
    vertices each scoring call inside it was given."""

    def __init__(self):
        self.calls = []
        self._real = session_module.frontier_modularity_optimization

    def __call__(self, graph, config, threshold, **kwargs):
        scored = []
        real_score = mod_opt.compute_moves_vectorized

        def counting(graph, comm, volumes, sizes, vertices, **rest):
            scored.append(int(np.asarray(vertices).size))
            return real_score(graph, comm, volumes, sizes, vertices, **rest)

        labels = np.array(kwargs["initial_communities"], copy=True)
        with mock.patch.object(mod_opt, "compute_moves_vectorized", counting):
            outcome = self._real(graph, config, threshold, **kwargs)
        self.calls.append((graph, config, threshold, labels, kwargs, outcome, scored))
        return outcome


@st.composite
def _moving_sessions(draw):
    """(graph, scope, seed): caves with cross links, integral or float
    weights; the seed draws batches that pull vertices across caves."""
    caves = draw(st.integers(min_value=3, max_value=6))
    size = draw(st.integers(min_value=3, max_value=6))
    base, _ = caveman(caves, size)
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v, _ = base.edge_list(unique=True)
    extra = int(rng.integers(0, caves * 2))
    u = np.concatenate((u, rng.integers(0, base.num_vertices, extra)))
    v = np.concatenate((v, rng.integers(0, base.num_vertices, extra)))
    w = rng.integers(1, 4, u.size).astype(float) if integral else rng.random(u.size) + 0.5
    graph = from_edges(u, v, w, num_vertices=base.num_vertices)
    scope = draw(st.sampled_from(["community", "endpoints"]))
    return graph, scope, int(rng.integers(0, 2**32 - 1))


def _pulling_batches(session, seed, count):
    """Each batch wires two vertices to several members of another
    community of the current partition, so they (and others) move."""
    rng = np.random.default_rng(seed)
    integral = session.graph.integral_weights
    for _ in range(count):
        labels = session.membership
        n = labels.size
        au, av = [], []
        for x in rng.choice(n, 2, replace=False).tolist():
            others = np.flatnonzero(labels != labels[x])
            if others.size == 0:
                continue
            target = labels[others[rng.integers(0, others.size)]]
            members = np.flatnonzero(labels == target)
            for y in rng.choice(members, min(4, members.size), replace=False).tolist():
                au.append(x)
                av.append(y)
        w = rng.integers(1, 4, len(au)).astype(float) if integral else rng.random(len(au)) + 1.0
        yield {"add": (np.array(au, dtype=np.int64), np.array(av, dtype=np.int64), w)}


@settings(max_examples=40, deadline=None)
@given(_moving_sessions())
def test_local_sweeps_equal_the_per_bucket_reference(case):
    graph, scope, seed = case
    session = StreamSession(
        graph, frontier_scope=scope, frontier_fraction_limit=1.0
    )
    recorder = _Recorder()
    with mock.patch.object(session_module, "frontier_modularity_optimization", recorder):
        for batch in _pulling_batches(session, seed, 6):
            session.apply(**batch)
    for graph, config, threshold, labels, kwargs, outcome, scored in recorder.calls:
        comm, q, sweeps = _reference_local(
            graph, config, threshold, labels, kwargs["frontier"],
            kwargs["expansion"], kwargs["internal_weight"],
        )
        assert np.array_equal(outcome.communities, comm)
        assert outcome.modularity == q
        assert [
            (s.moves_per_bucket, s.frontier_size) for s in outcome.profile.sweeps
        ] == sweeps
        # One call per sweep up to its first commit, one per later
        # bucket after it: never more than twice the vertices a sweep
        # scores, and exactly one call for a sweep without movers.
        assert sum(scored) <= 2 * sum(size for _, size in sweeps)
        if sum(sum(moves) for moves, _ in sweeps) == 0:
            assert len(scored) == len(sweeps)
        for s in outcome.profile.sweeps:
            assert s.gather_reuse_hits == s.pair_reuse_hits == s.pair_patch_hits == 0


def test_pulling_batches_move_vertices_and_rescore_after_a_commit():
    """The property above sees what it is about: moves, several sweeps,
    and sweeps that rescore later buckets after a commit."""
    base, _ = caveman(6, 5)
    u, v, _ = base.edge_list(unique=True)
    rng = np.random.default_rng(3)
    w = rng.integers(1, 4, u.size).astype(float)
    graph = from_edges(u, v, w, num_vertices=base.num_vertices)
    session = StreamSession(graph, frontier_scope="endpoints", frontier_fraction_limit=1.0)
    recorder = _Recorder()
    with mock.patch.object(session_module, "frontier_modularity_optimization", recorder):
        for batch in _pulling_batches(session, 7, 6):
            session.apply(**batch)
    outcomes = [call[5] for call in recorder.calls]
    assert sum(o.profile.total_moves for o in outcomes) > 0
    assert max(o.sweeps for o in outcomes) > 1
    assert max(len(call[6]) - call[5].sweeps for call in recorder.calls) > 0


@settings(max_examples=80, deadline=None)
@given(
    csr_graphs(max_vertices=20, max_edges=50, weighted=True),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_singletons_can_move_decides_the_first_sweep(graph, resolution):
    config = GPULouvainConfig(resolution=resolution)
    outcome = modularity_optimization(graph, config, 1e-6)
    identity = np.arange(graph.num_vertices)
    if not singletons_can_move(graph, config):
        # Nothing moves in sweep 1, so the phase stops there: the level
        # a stream batch drops as degenerate without running it.
        assert np.array_equal(outcome.communities, identity)
        assert outcome.sweeps == (1 if graph.total_weight != 0.0 else 0)
    else:
        # With the singleton constraint a committed move empties a label
        # for good, so the level contracts.
        assert np.unique(outcome.communities).size < graph.num_vertices


def test_carry_kept_across_a_batch_that_empties_the_graph():
    """The carry is no longer re-keyed when the labels stay, so the one
    built on an edgeless graph must take float weight patches later."""
    graph = from_edges([0, 2], [2, 3], [2.0, 1.0], num_vertices=4)
    session = StreamSession(graph, frontier_fraction_limit=1.0)
    session.apply(remove=(np.array([0, 2]), np.array([2, 3])))
    assert session._carry is not None
    result = session.apply(add=(np.array([0]), np.array([1]), np.array([3.0])))
    assert result.modularity == 0.0
