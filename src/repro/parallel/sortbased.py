"""Comparator: Cheong et al.'s sort-based single-GPU Louvain [4].

Their kernel avoids hashing entirely: each vertex's neighbour list is
sorted by the neighbours' community ids and the per-community weights come
from a run-length accumulation.  Node-centric (one thread per vertex), and
only the modularity-optimization phase is parallel — the aggregation is
host-side and serial.

The move semantics otherwise match a plain synchronous fine-grained sweep
without singleton protection; the hierarchical multi-GPU layer of [4] is
modelled by :func:`repro.parallel.coarse.coarse_louvain` with
``num_parts = num_gpus``.

The implementation's *cost signature* differs from the hash-based kernel:
``sort_cost = deg * log2(deg)`` comparisons per vertex instead of ~1.5
probes per edge, which :func:`sort_kernel_cycles` exposes for the
ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from ..gpu.costmodel import CostModel, warp_schedule
from .chunked import chunked_one_level
from ..graph.csr import CSRGraph
from ..result import LouvainResult
from ..seq.aggregation import aggregate
from ..seq.louvain import multilevel
from ..trace import NullTracer, Tracer

__all__ = ["sort_based_louvain", "sort_one_level", "sort_kernel_cycles"]


def sort_one_level(
    graph: CSRGraph,
    threshold: float,
    *,
    num_threads: int = 32,
    max_sweeps: int = 1000,
) -> tuple[np.ndarray, int]:
    """One node-centric phase with sort-based accumulation.

    Move decisions are identical to the hash-based kernel (the sorted
    run-length accumulation computes the same ``e_{i->c}`` sums); the
    chunk-asynchronous commit discipline models the device's immediate
    global-memory updates.  No singleton-protection rule, as in [4].
    """
    return chunked_one_level(
        graph,
        threshold,
        num_threads=num_threads,
        singleton_constraint=False,
        max_sweeps=max_sweeps,
    )


def sort_based_louvain(
    graph: CSRGraph,
    *,
    threshold: float = 1e-6,
    max_levels: int = 200,
    tracer: Tracer | NullTracer | None = None,
) -> LouvainResult:
    """Full sort-based Louvain (parallel phase 1, serial aggregation)."""
    return multilevel(
        graph,
        sort_one_level,
        aggregate,  # serial, as in [4]
        threshold=threshold,
        max_levels=max_levels,
        solver="sort",
        tracer=tracer,
    )


def sort_kernel_cycles(graph: CSRGraph, cost_model: CostModel) -> float:
    """Simulated warp-cycles of one sort-based node-centric sweep.

    One thread per vertex (32 vertices per warp, original order);
    per-vertex work is a ``deg * ceil(log2 deg)``-comparison sort plus one
    pass of run-length reduction, all in registers/local memory (charged
    at shared-probe latency).
    """
    degrees = graph.degrees
    p = cost_model.params
    logd = np.ceil(np.log2(np.maximum(degrees, 2)))
    per_vertex = (
        degrees * p.edge_load
        + degrees * logd * p.probe_shared
        + degrees * p.probe_shared
        + p.vertex_overhead
    )
    warp_cycles, _ = warp_schedule(per_vertex, cost_model.device.warp_size)
    return warp_cycles
