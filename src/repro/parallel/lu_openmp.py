"""Comparator: Lu, Halappanavar & Kalyanaraman's parallel heuristics [16].

The algorithm the paper benchmarks against in Figure 7 (their OpenMP code
on 2x Xeon E5-2680, 20 threads).  Distinguishing features, all implemented:

* a **graph coloring** divides vertices into independent sets; one
  modularity-optimization iteration runs over each color class in turn,
  with moves committed before the next class;
* the **singleton minimum-label rule**: a vertex that is a community by
  itself only moves to another singleton with a smaller community id;
* **lowest-id tie-break** among equal-gain targets;
* **adaptive thresholds**: a coarser sweep threshold on early (large)
  levels, the fine threshold below the vertex limit.

Within a color class no two vertices are adjacent, so a serial commit of
the class is exactly equal to the parallel one — this pure-Python
implementation is semantically the 20-thread run.  Wall-clock-wise it
plays the interpreted-CPU role in the reproduction's speedup comparisons
(DESIGN.md §6).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..result import LouvainResult
from ..seq.aggregation import aggregate
from ..seq.louvain import multilevel
from ..trace import NullTracer, Tracer
from .coloring import color_classes, greedy_coloring

__all__ = ["lu_louvain", "lu_one_level"]


def lu_one_level(
    graph: CSRGraph,
    threshold: float,
    *,
    max_sweeps: int = 1000,
) -> tuple[np.ndarray, int]:
    """One coloring-driven optimization phase; returns (communities, sweeps)."""
    n = graph.num_vertices
    k = graph.weighted_degrees
    loops = graph.self_loop_weights()
    m = graph.m
    if n == 0 or m == 0.0:
        return np.arange(n, dtype=np.int64), 0
    comm = np.arange(n, dtype=np.int64)
    tot = k.astype(np.float64).copy()
    sizes = np.ones(n, dtype=np.int64)
    classes = color_classes(greedy_coloring(graph))

    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = graph.weights.tolist()
    k_list = k.tolist()
    loops_list = loops.tolist()
    two_m = 2.0 * m

    src = graph.vertex_of_edge
    dst = graph.indices

    def current_modularity() -> float:
        internal = float(graph.weights[comm[src] == comm[dst]].sum())
        return internal / two_m - float(np.square(tot).sum()) / (two_m * two_m)

    q = current_modularity()
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        moved = 0
        for cls in classes:
            # One parallel iteration over the class: every vertex decides
            # from the state committed by earlier classes (vertices in the
            # same class are never adjacent, so their decisions cannot see
            # each other's moves anyway); commits happen at class end.
            decisions: list[tuple[int, int]] = []
            for v in cls.tolist():
                own = int(comm[v])
                kv = k_list[v]
                neigh: dict[int, float] = {own: 0.0}
                for e in range(indptr[v], indptr[v + 1]):
                    nb = indices[e]
                    if nb == v:
                        continue
                    c = int(comm[nb])
                    neigh[c] = neigh.get(c, 0.0) + weights[e]
                e_own = neigh[own]
                a_own_excl = float(tot[own]) - kv
                best_c = own
                best_gain = 0.0
                v_singleton = sizes[own] == 1
                for c in sorted(neigh):
                    if c == own:
                        continue
                    if v_singleton and sizes[c] == 1 and c > own:
                        continue
                    gain = (neigh[c] - e_own) / m + kv * (
                        a_own_excl - float(tot[c])
                    ) / (2.0 * m * m)
                    if gain > best_gain:
                        best_gain = gain
                        best_c = c
                if best_c != own:
                    decisions.append((v, best_c))
            for v, best_c in decisions:
                own = int(comm[v])
                kv = k_list[v]
                comm[v] = best_c
                tot[own] -= kv
                tot[best_c] += kv
                sizes[own] -= 1
                sizes[best_c] += 1
                moved += 1
        new_q = current_modularity()
        gain = new_q - q
        q = new_q
        if moved == 0 or gain < threshold:
            break
    return comm, sweeps


def lu_louvain(
    graph: CSRGraph,
    *,
    threshold_bin: float = 1e-2,
    threshold_final: float = 1e-6,
    bin_vertex_limit: int = 100_000,
    max_levels: int = 200,
    tracer: Tracer | NullTracer | None = None,
) -> LouvainResult:
    """Full Lu-et-al. Louvain with adaptive thresholds."""
    return multilevel(
        graph,
        lu_one_level,
        aggregate,
        threshold=threshold_final,
        threshold_bin=threshold_bin,
        bin_vertex_limit=bin_vertex_limit,
        max_levels=max_levels,
        solver="lu",
        tracer=tracer,
    )
