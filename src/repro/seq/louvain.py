"""Sequential Louvain method — the paper's baseline (Blondel et al. 2008).

This is a faithful pure-Python port of the original algorithm the paper
compares against ("for all sequential experiments we used the original code
from [1]"): an asynchronous greedy sweep over vertices in order, immediate
commit of each move, hash(dict)-based accumulation of neighbour-community
weights, followed by graph contraction, repeated until the modularity gain
of a whole stage drops below the threshold.

Two variants, as in Section 5:

* :func:`louvain` with a single ``threshold`` — the original algorithm;
* ``adaptive=True`` — the *adaptive sequential* variant of Figure 4, using
  the coarse ``threshold_bin`` while the current level's graph has more
  than ``bin_vertex_limit`` vertices and ``threshold_final`` below.

Being interpreted Python, this baseline plays the role of the scalar
reference that the data-parallel engines are sped up against (DESIGN.md §6).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..metrics.modularity import modularity
from ..result import LouvainResult, flatten_levels
from ..trace import NullTracer, Tracer, as_tracer
from .aggregation import aggregate

__all__ = ["louvain", "multilevel", "one_level"]


def one_level(
    graph: CSRGraph,
    threshold: float,
    *,
    max_sweeps: int = 1000,
) -> tuple[np.ndarray, int]:
    """One modularity-optimization phase (phase 1) on ``graph``.

    Starts from singletons, sweeps vertices in index order moving each to
    the neighbouring community with the largest positive Eq.-(2) gain
    (ties to the lowest community id), until a sweep improves modularity by
    less than ``threshold`` or nothing moves.

    Returns ``(communities, sweeps)``.
    """
    n = graph.num_vertices
    indptr = graph.indptr
    indices = graph.indices
    weights = graph.weights
    k = graph.weighted_degrees
    loops = graph.self_loop_weights()
    m = graph.m
    comm = list(range(n))
    tot = k.astype(np.float64).copy()  # a_c per community label
    if m == 0.0 or n == 0:
        return np.arange(n, dtype=np.int64), 0

    # Internal weights per community for O(1) modularity tracking.
    in_w = loops.astype(np.float64).copy()
    two_m = 2.0 * m

    def current_modularity() -> float:
        q = 0.0
        for c in range(n):
            if tot[c] != 0.0 or in_w[c] != 0.0:
                q += in_w[c] / two_m - (tot[c] / two_m) ** 2
        return q

    cur_q = current_modularity()
    sweeps = 0
    indices_list = indices.tolist()
    weights_list = weights.tolist()
    indptr_list = indptr.tolist()
    k_list = k.tolist()
    loops_list = loops.tolist()

    while sweeps < max_sweeps:
        sweeps += 1
        nb_moves = 0
        for v in range(n):
            own = comm[v]
            kv = k_list[v]
            loop_v = loops_list[v]
            # Accumulate e_{v->c} over neighbour communities (self excluded).
            neigh: dict[int, float] = {own: 0.0}
            for e in range(indptr_list[v], indptr_list[v + 1]):
                nb = indices_list[e]
                if nb == v:
                    continue
                c = comm[nb]
                neigh[c] = neigh.get(c, 0.0) + weights_list[e]
            # Remove v from its community.
            e_own = neigh[own]
            tot[own] -= kv
            in_w[own] -= 2.0 * e_own + loop_v
            # Best insertion: maximise e_{v->c} - k_v * tot[c] / 2m.
            best_c = own
            best_score = e_own - kv * tot[own] / two_m
            for c, e_vc in neigh.items():
                if c == own:
                    continue
                score = e_vc - kv * tot[c] / two_m
                if score > best_score or (score == best_score and c < best_c):
                    best_score = score
                    best_c = c
            # Reinsert (possibly elsewhere).  Strictly-positive gain rule:
            # equal score to staying means no move.
            stay_score = e_own - kv * tot[own] / two_m
            if best_c != own and best_score > stay_score:
                comm[v] = best_c
                nb_moves += 1
            target = comm[v]
            tot[target] += kv
            in_w[target] += 2.0 * neigh.get(target, 0.0) + loop_v
        new_q = current_modularity()
        gain = new_q - cur_q
        cur_q = new_q
        if nb_moves == 0 or gain < threshold:
            break
    return np.asarray(comm, dtype=np.int64), sweeps


def multilevel(
    graph: CSRGraph,
    optimize,
    contract,
    *,
    threshold: float,
    threshold_bin: float | None = None,
    bin_vertex_limit: int = 0,
    max_levels: int = 200,
    solver: str,
    tracer: Tracer | NullTracer | None = None,
) -> LouvainResult:
    """The level loop the reference solvers share.

    Alternates ``optimize(level_graph, level_threshold) -> (communities,
    sweeps)`` and ``contract(level_graph, communities) -> (contracted,
    dense_map)`` until a level gains less than ``threshold`` modularity
    or contracts nothing.  ``level_threshold`` is ``threshold_bin``
    while the level graph has more than ``bin_vertex_limit`` vertices
    (when ``threshold_bin`` is given), else ``threshold``.

    ``tracer`` records the run as ``run`` (``solver=solver``) →
    ``level`` → ``optimization``/``aggregation`` spans, which hold the
    per-level seconds of figures 5 and 6.
    """
    tracer = as_tracer(tracer)
    levels: list[np.ndarray] = []
    level_sizes: list[tuple[int, int]] = []
    sweeps_per_level: list[int] = []
    modularity_per_level: list[float] = []
    current = graph
    prev_q = -1.0

    with tracer.span("run", solver=solver):
        for level in range(max_levels):
            level_threshold = (
                threshold_bin
                if threshold_bin is not None and current.num_vertices > bin_vertex_limit
                else threshold
            )
            with tracer.span(
                "level",
                level=level,
                num_vertices=current.num_vertices,
                num_edges=current.num_edges,
            ) as level_span:
                with tracer.span("optimization") as opt_span:
                    comm, sweeps = optimize(current, level_threshold)
                    opt_span.count(sweeps=sweeps)
                with tracer.span("aggregation"):
                    contracted, dense = contract(current, comm)
                levels.append(dense)
                level_sizes.append((current.num_vertices, current.num_edges))
                sweeps_per_level.append(sweeps)
                q = modularity(graph, flatten_levels(levels))
                modularity_per_level.append(q)
                level_span.count(sweeps=sweeps, modularity=q)
            no_contraction = contracted.num_vertices == current.num_vertices
            current = contracted
            if q - prev_q < threshold or no_contraction:
                break
            prev_q = q

    return LouvainResult(
        levels=levels,
        level_sizes=level_sizes,
        membership=flatten_levels(levels),
        # The last level's Q was computed on this very membership.
        modularity=modularity_per_level[-1],
        modularity_per_level=modularity_per_level,
        sweeps_per_level=sweeps_per_level,
    )


def louvain(
    graph: CSRGraph,
    *,
    threshold: float = 1e-6,
    adaptive: bool = False,
    threshold_bin: float = 1e-2,
    threshold_final: float = 1e-6,
    bin_vertex_limit: int = 100_000,
    max_levels: int = 200,
    tracer: Tracer | NullTracer | None = None,
) -> LouvainResult:
    """Full sequential Louvain: phases of optimization + aggregation.

    Parameters
    ----------
    graph:
        Input graph.
    threshold:
        Per-sweep modularity-gain threshold of the original algorithm
        (ignored when ``adaptive=True``).
    adaptive:
        Use the paper's adaptive scheme: ``threshold_bin`` while the level
        graph has more than ``bin_vertex_limit`` vertices, else
        ``threshold_final``.
    max_levels:
        Safety bound on hierarchy depth.
    tracer:
        Records the run's span tree (see :func:`multilevel`).
    """
    return multilevel(
        graph,
        one_level,
        aggregate,
        threshold=threshold_final if adaptive else threshold,
        threshold_bin=threshold_bin if adaptive else None,
        bin_vertex_limit=bin_vertex_limit,
        max_levels=max_levels,
        solver="seq",
        tracer=tracer,
    )
