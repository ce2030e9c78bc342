"""Comparator: coarse-grained parallel Louvain.

Models the distributed-memory algorithms the paper reviews
(Wickramaarachchi et al. [26] — MPI; Zeng & Yu [27]; and the across-GPU
layer of Cheong et al. [4]): the vertex set is split into ``num_parts``
disjoint parts, a full sequential-style modularity optimization runs
*independently* inside each part (cross-part edges are invisible during
this step), then the per-part communities seed a global merge: the graph
is contracted by the union of part-local communities and the remaining
levels run normally.

Section 6 of the paper observes that this scheme "seems to consistently
produce solutions of high modularity even when using an initial random
vertex partitioning" — the benchmark reproduces exactly that comparison
(random parts vs the fine-grained result).
"""

from __future__ import annotations

import numpy as np

from ..core.mod_opt import modularity_optimization
from ..core.config import GPULouvainConfig
from ..graph.build import induced_subgraph
from ..graph.csr import CSRGraph
from ..metrics.modularity import modularity
from ..result import LouvainResult, flatten_levels
from ..trace import NullTracer, Tracer, as_tracer
from .vector_aggregate import aggregate_vectorized

__all__ = ["coarse_louvain", "random_parts"]


def random_parts(
    num_vertices: int, num_parts: int, rng: np.random.Generator | int | None = 0
) -> np.ndarray:
    """Random balanced assignment of vertices to parts."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    parts = np.arange(num_vertices, dtype=np.int64) % num_parts
    rng.shuffle(parts)
    return parts


def coarse_louvain(
    graph: CSRGraph,
    num_parts: int = 4,
    *,
    parts: np.ndarray | None = None,
    threshold: float = 1e-6,
    rng: np.random.Generator | int | None = 0,
    max_levels: int = 200,
    tracer: Tracer | NullTracer | None = None,
) -> LouvainResult:
    """Coarse-grained Louvain with ``num_parts`` independent workers.

    ``parts`` overrides the random partition (e.g. to test a smarter
    edge-cut partitioning).  ``tracer`` records ``run`` → ``level`` →
    ``optimization``/``aggregation`` spans; level 0's optimization is
    the independent per-part phase and its aggregation the merge.
    Level 0's sweep count is the maximum over the parts — the depth of
    the parallel phase, since the parts sweep side by side — both in
    ``sweeps_per_level[0]`` and on its level and optimization spans.
    """
    n = graph.num_vertices
    if parts is None:
        parts = random_parts(n, num_parts, rng)
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (n,):
        raise ValueError("parts must assign one part per vertex")

    tracer = as_tracer(tracer)
    config = GPULouvainConfig(threshold_final=threshold, threshold_bin=max(threshold, 1e-2))
    levels: list[np.ndarray] = []
    level_sizes: list[tuple[int, int]] = [(n, graph.num_edges)]
    sweeps_per_level: list[int] = []
    modularity_per_level: list[float] = []

    with tracer.span("run", solver="coarse"):
        with tracer.span(
            "level", level=0, num_vertices=n, num_edges=graph.num_edges
        ) as level_span:
            # Phase A: independent optimization inside each part.
            local_comm = np.arange(n, dtype=np.int64)
            phase_sweeps = 0
            with tracer.span("optimization") as opt_span:
                for p in range(int(parts.max()) + 1 if n else 0):
                    members = np.flatnonzero(parts == p)
                    if members.size == 0:
                        continue
                    sub = induced_subgraph(graph, members)
                    outcome = modularity_optimization(sub, config, threshold)
                    # Map the subgraph's community labels (subgraph-vertex
                    # ids) back to global vertex ids so all parts stay
                    # disjoint.
                    local_comm[members] = members[outcome.communities]
                    phase_sweeps = max(phase_sweeps, outcome.sweeps)
                opt_span.count(sweeps=phase_sweeps)

            # Phase B: merge — contract by the union of local solutions,
            # then run fine-grained Louvain levels to completion on the
            # contracted graph.
            with tracer.span("aggregation"):
                contracted, dense = aggregate_vectorized(graph, local_comm)
            levels.append(dense)
            sweeps_per_level.append(phase_sweeps)
            q = modularity(graph, flatten_levels(levels))
            modularity_per_level.append(q)
            level_span.count(sweeps=phase_sweeps, modularity=q)
        prev_q = q
        current = contracted

        for level in range(1, max_levels + 1):
            with tracer.span(
                "level",
                level=level,
                num_vertices=current.num_vertices,
                num_edges=current.num_edges,
            ) as level_span:
                with tracer.span("optimization") as opt_span:
                    outcome = modularity_optimization(current, config, threshold)
                    opt_span.count(sweeps=outcome.sweeps)
                with tracer.span("aggregation"):
                    contracted, dense = aggregate_vectorized(current, outcome.communities)
                levels.append(dense)
                level_sizes.append((current.num_vertices, current.num_edges))
                sweeps_per_level.append(outcome.sweeps)
                q = modularity(graph, flatten_levels(levels))
                modularity_per_level.append(q)
                level_span.count(sweeps=outcome.sweeps, modularity=q)
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
