"""Comparator: PLM — parallel Louvain method of Staudt & Meyerhenke [21].

Node-centric fine-grained parallelism: every thread owns a slice of
vertices, evaluates the best community for each and commits immediately,
reading whatever mixture of old and new assignments other threads have
produced.  We reproduce that discipline deterministically by processing
vertices in fixed-size *chunks* (one chunk = one parallel step of
``num_threads`` vertices): decisions within a chunk read the state
committed by all previous chunks, and the chunk commits together.

No coloring, no singleton rule (PLM relies on asynchrony to avoid swap
cycles), plain best-gain moves with lowest-id tie-break.  Uses the
vectorized move kernel, so its wall-clock is comparable with the GPU
engine's and the measured differences are algorithmic (extra sweeps,
oscillations) rather than interpreter overhead.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..result import LouvainResult
from ..seq.louvain import multilevel
from ..trace import NullTracer, Tracer
from .chunked import chunked_one_level
from .vector_aggregate import aggregate_vectorized

__all__ = ["plm_louvain", "plm_one_level"]


def plm_one_level(
    graph: CSRGraph,
    threshold: float,
    *,
    num_threads: int = 32,
    max_sweeps: int = 1000,
) -> tuple[np.ndarray, int]:
    """One PLM optimization phase; returns ``(communities, sweeps)``.

    Chunk-asynchronous with ``num_threads`` concurrent vertices (see
    :mod:`repro.parallel.chunked`), no singleton rule, lowest-id
    tie-break.
    """
    return chunked_one_level(
        graph,
        threshold,
        num_threads=num_threads,
        singleton_constraint=False,
        max_sweeps=max_sweeps,
    )


def plm_louvain(
    graph: CSRGraph,
    *,
    threshold: float = 1e-6,
    num_threads: int = 32,
    max_levels: int = 200,
    tracer: Tracer | NullTracer | None = None,
) -> LouvainResult:
    """Full PLM: optimization + contraction until modularity stalls."""
    return multilevel(
        graph,
        lambda level_graph, t: plm_one_level(level_graph, t, num_threads=num_threads),
        aggregate_vectorized,
        threshold=threshold,
        max_levels=max_levels,
        solver="plm",
        tracer=tracer,
    )
