"""GPU-style label propagation (the repository's second detection algorithm).

The kernel set follows the VisionFlow CUDA sketch (SNIPPETS.md §1):
``init_labels`` (singletons or a warm-start partition),
``propagate_labels`` in a **sync** (double-buffered snapshot) or
**async** (in-place, degree-bucketed commits — the same discipline as
Alg. 1's ``computeMove``) variant, a convergence flag, and a final
``relabel_communities`` compaction that renumbers the surviving labels
densely with an exclusive scan.

Vote rule — weighted label propagation: every vertex adopts the label
with the largest total incident edge weight among its neighbours,
moving only when that weight **strictly** exceeds the weight of its own
current label (self-loops are ignored; they vote for nobody).  Ties
between winning labels break toward the smaller label, so the whole
run is deterministic.  The per-(vertex, label) accumulation reuses the
bucketed sub-warp machinery of :mod:`~repro.core.compute_move`: a row
gather, one combined-key segment sort, and segmented ``reduceat`` reductions
stand in for the per-thread hash tables of the CUDA kernel.

Label propagation does not optimise modularity — it is a single-level
structural method, ~an order of magnitude fewer sweeps than Louvain on
the suite graphs, with the quality trade-off the comparison bench
(``benchmarks/bench_quality.py``) tabulates honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..gpu.thrust import exclusive_scan, gather_rows
from ..metrics.modularity import modularity
from ..metrics.timing import SweepStats
from ..result import LouvainResult
from ..trace import NullTracer, Tracer, as_tracer, sweep_span
from .buckets import degree_buckets
from .compute_move import segment_sort_order
from .config import GPULouvainConfig

__all__ = ["LabelPropagationResult", "label_propagation"]


@dataclass
class LabelPropagationResult(LouvainResult):
    """A :class:`~repro.result.LouvainResult` plus the convergence flag.

    ``converged`` is ``False`` only when the sweep cap
    (``config.max_sweeps_per_level``) stopped the propagation first —
    possible under ``mode="sync"``, whose double-buffered updates can
    oscillate on bipartite-ish structures; the async discipline always
    converges in practice.
    """

    converged: bool = True


def _best_labels(
    graph: CSRGraph,
    labels: np.ndarray,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Winning label per vertex of ``vertices`` under ``labels``.

    Returns ``(new_label, moved_mask)`` — the propagate kernel's body:
    gather rows, segment-sort ``(vertex, neighbour label)`` pairs,
    reduce the edge weights per pair, and argmax with the
    smallest-label tie-break.
    """
    n = graph.num_vertices
    own = labels[vertices]
    new_label = own.copy()
    edge_pos, owner_local = gather_rows(graph.indptr, vertices)
    if edge_pos.size == 0:
        return new_label, np.zeros(vertices.size, dtype=bool)
    dst = graph.indices[edge_pos]
    not_loop = dst != vertices[owner_local]
    owner_local = owner_local[not_loop]
    dst_label = labels[dst[not_loop]]
    w = graph.weights[edge_pos][not_loop]
    if owner_local.size == 0:
        return new_label, np.zeros(vertices.size, dtype=bool)

    order = segment_sort_order(owner_local, dst_label, n)
    owner_local = owner_local[order]
    dst_label = dst_label[order]
    w = w[order]
    boundary = np.flatnonzero(
        np.concatenate(
            (
                [True],
                (owner_local[1:] != owner_local[:-1])
                | (dst_label[1:] != dst_label[:-1]),
            )
        )
    )
    pv = owner_local[boundary]  # local vertex per (vertex, label) pair
    pc = dst_label[boundary]  # candidate label per pair
    pw = np.add.reduceat(w, boundary)  # summed vote weight per pair

    group_start = np.flatnonzero(np.concatenate(([True], pv[1:] != pv[:-1])))
    seg_lengths = np.diff(np.append(group_start, pv.size))
    group_vertex = pv[group_start]

    # Weight of the vertex's own current label (0 when no neighbour
    # shares it — e.g. a freshly-initialised singleton).
    own_weight = np.zeros(vertices.size, dtype=np.float64)
    own_pair = pc == own[pv]
    own_weight[pv[own_pair]] = pw[own_pair]

    max_w = np.maximum.reduceat(pw, group_start)
    max_per_pair = np.repeat(max_w, seg_lengths)
    tie_candidate = np.where(pw == max_per_pair, pc, n)
    best = np.minimum.reduceat(tie_candidate, group_start)

    # Strict-majority move rule: adopt the winner only when it beats the
    # current label's weight outright.
    wins = max_w > own_weight[group_vertex]
    new_label[group_vertex[wins]] = best[wins]
    moved = new_label != own
    return new_label, moved


def label_propagation(
    graph: CSRGraph,
    config: GPULouvainConfig | None = None,
    *,
    initial_communities: np.ndarray | None = None,
    frontier: np.ndarray | None = None,
    mode: str = "async",
    tracer: Tracer | NullTracer | None = None,
    **overrides,
) -> LabelPropagationResult:
    """Run weighted label propagation on ``graph``.

    Parameters
    ----------
    config / overrides:
        A :class:`~repro.core.GPULouvainConfig` (or keyword overrides
        building one); LPA uses its degree buckets, sweep cap and
        ``resolution`` (for the reported modularity) only.
    initial_communities:
        Warm-start labels (one per vertex, values in ``[0, n)``);
        default singletons (``init_labels``).
    frontier:
        Restrict the first sweep to these vertices (the streaming
        cascade seed); later sweeps activate movers and their
        neighbours.  ``None`` scores every vertex first.
    mode:
        ``"async"`` (default) commits labels after every degree bucket;
        ``"sync"`` double-buffers the whole sweep's decisions.

    Returns a single-level :class:`LabelPropagationResult` whose
    membership is compacted to dense labels.  With a live ``tracer``
    the run is recorded as a ``propagation`` span with one ``sweep``
    child per sweep.
    """
    if config is None:
        config = GPULouvainConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")
    if mode not in ("sync", "async"):
        raise ValueError(f"unknown propagation mode: {mode!r}")
    n = graph.num_vertices
    if initial_communities is not None:
        initial_communities = np.asarray(initial_communities, dtype=np.int64)
        if initial_communities.shape != (n,):
            raise ValueError("initial_communities must assign one label per vertex")
        if initial_communities.size and (
            initial_communities.min() < 0 or initial_communities.max() >= n
        ):
            raise ValueError(
                "initial community labels must be existing vertex ids (0..n-1)"
            )

    tracer = as_tracer(tracer)
    if not tracer.enabled:
        return _propagate(graph, config, initial_communities, frontier, mode, tracer)
    with tracer.span(
        "propagation",
        mode=mode,
        num_vertices=n,
        num_edges=graph.num_edges,
        warm_start=initial_communities is not None,
    ) as span:
        result = _propagate(
            graph, config, initial_communities, frontier, mode, tracer
        )
        span.count(
            sweeps=sum(result.sweeps_per_level),
            modularity=result.modularity,
            num_communities=result.num_communities,
            converged=int(result.converged),
        )
    return result


def _propagate(
    graph: CSRGraph,
    config: GPULouvainConfig,
    initial: np.ndarray | None,
    frontier: np.ndarray | None,
    mode: str,
    tracer: Tracer | NullTracer,
) -> LabelPropagationResult:
    """:func:`label_propagation` body (inputs validated)."""
    n = graph.num_vertices
    labels = (
        np.arange(n, dtype=np.int64) if initial is None else initial.copy()
    )  # init_labels
    degrees = graph.degrees

    active = np.zeros(n, dtype=bool)
    if frontier is None:
        active[:] = True
    elif np.asarray(frontier).size:
        active[np.asarray(frontier, dtype=np.int64)] = True
    active &= degrees > 0

    sweeps = 0
    converged = True
    sweep_stats: list[SweepStats] = []
    trace_on = tracer.enabled
    while True:
        if sweeps >= config.max_sweeps_per_level:
            converged = False
            break
        candidates = np.flatnonzero(active)
        if candidates.size == 0:
            break
        sweeps += 1
        active[:] = False
        moves_per_bucket: list[int] = []
        moved_vertices: list[np.ndarray] = []
        if mode == "sync":
            # check_convergence is the moved count of the snapshot pass.
            new_label, moved = _best_labels(graph, labels, candidates)
            movers = candidates[moved]
            labels[movers] = new_label[moved]
            moves_per_bucket.append(int(movers.size))
            if movers.size:
                moved_vertices.append(movers)
        else:
            # Async: degree-bucketed commits, smallest degrees first —
            # the sub-warp bucket order of Alg. 1.
            buckets = degree_buckets(
                degrees,
                config.degree_bucket_bounds,
                config.group_sizes,
                vertices=candidates,
            )
            for bucket in buckets:
                if bucket.members.size == 0:
                    moves_per_bucket.append(0)
                    continue
                new_label, moved = _best_labels(graph, labels, bucket.members)
                movers = bucket.members[moved]
                labels[movers] = new_label[moved]
                moves_per_bucket.append(int(movers.size))
                if movers.size:
                    moved_vertices.append(movers)
        moved_total = sum(moves_per_bucket)
        stats = SweepStats(sweep=sweeps, moves_per_bucket=moves_per_bucket)
        stats.frontier_size = int(candidates.size)
        sweep_stats.append(stats)
        if moved_total == 0:
            break
        # Cascade: movers and their neighbours re-vote next sweep.
        movers = np.concatenate(moved_vertices)
        active[movers] = True
        edge_pos, _ = gather_rows(graph.indptr, movers)
        active[graph.indices[edge_pos]] = True
        active &= degrees > 0

    if trace_on:
        for stats in sweep_stats:
            tracer.attach(sweep_span(stats))

    # relabel_communities: dense renumbering via an exclusive scan over
    # the present-label flags.
    present = np.bincount(labels, minlength=n) > 0
    dense_id = exclusive_scan(present.astype(np.int64))[:-1]
    membership = dense_id[labels]
    q = modularity(graph, membership, resolution=config.resolution)
    return LabelPropagationResult(
        levels=[membership.copy()],
        level_sizes=[(n, graph.num_edges)],
        membership=membership,
        modularity=q,
        modularity_per_level=[q],
        sweeps_per_level=[sweeps],
        sweep_stats=[sweep_stats],
        converged=converged,
    )
