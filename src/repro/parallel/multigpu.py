"""Multi-GPU Louvain — the paper's Section-6 future-work direction.

"We believe that our algorithm can also be used as a building block in a
distributed memory implementation of the Louvain method using multi-GPUs."

This module implements exactly that architecture, in the style Cheong et
al. [4] pioneered but with the paper's single-device algorithm as the
per-device kernel:

1. vertices are split across ``num_devices`` (randomly or by a supplied
   partition — an edge-cut partitioner would slot in here);
2. each device runs the full bucketed GPU Louvain on its *induced*
   subgraph, blind to cut edges (the coarse-grained across-device model);
3. the per-device clusterings seed a global contraction, and the merged
   graph — now small — is finished on a single device.

Per-device simulated timing uses the cost model so the scaling behaviour
(parallel phase = slowest device, merge = serial) can be studied without
hardware; cut statistics quantify the information each device cannot see,
which bounds the modularity loss (paper: Cheong et al. lose up to 9%).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import GPULouvainConfig
from ..core.gpu_louvain import GPULouvainResult, gpu_louvain
from ..graph.build import induced_subgraph
from ..graph.csr import CSRGraph
from ..metrics.modularity import modularity
from ..result import LouvainResult, flatten_levels
from ..trace import NullTracer, Tracer, as_tracer
from .coarse import random_parts
from .vector_aggregate import aggregate_vectorized

__all__ = ["MultiGpuResult", "multigpu_louvain", "cut_statistics"]


@dataclass(frozen=True)
class CutStatistics:
    """How much structure the device partition hides."""

    num_devices: int
    cut_edges: int
    total_edges: int
    largest_device_vertices: int
    largest_device_edges: int

    @property
    def cut_fraction(self) -> float:
        """Fraction of undirected edges crossing device boundaries."""
        return self.cut_edges / self.total_edges if self.total_edges else 0.0


def cut_statistics(graph: CSRGraph, parts: np.ndarray) -> CutStatistics:
    """Compute :class:`CutStatistics` for a device assignment."""
    parts = np.asarray(parts, dtype=np.int64)
    u, v, _ = graph.edge_list(unique=True)
    cut = int((parts[u] != parts[v]).sum())
    device_vertices = np.bincount(parts)
    internal = parts[u] == parts[v]
    device_edges = (
        np.bincount(parts[u[internal]], minlength=device_vertices.size)
        if u.size
        else np.zeros(device_vertices.size, dtype=np.int64)
    )
    return CutStatistics(
        num_devices=int(device_vertices.size),
        cut_edges=cut,
        total_edges=int(u.size),
        largest_device_vertices=int(device_vertices.max(initial=0)),
        largest_device_edges=int(device_edges.max(initial=0)),
    )


@dataclass
class MultiGpuResult(LouvainResult):
    """A :class:`LouvainResult` plus multi-device accounting.

    ``device_seconds`` holds each device's phase-A wall-clock;
    ``parallel_seconds`` is their max (devices run concurrently),
    ``merge_seconds`` the serial tail.
    """

    num_devices: int = 1
    device_seconds: list[float] = field(default_factory=list)
    merge_seconds: float = 0.0
    cut: CutStatistics | None = None
    device_results: list[GPULouvainResult] = field(default_factory=list)

    @property
    def parallel_seconds(self) -> float:
        """Phase-A time under perfectly concurrent devices."""
        return max(self.device_seconds, default=0.0)

    @property
    def emulated_total_seconds(self) -> float:
        """Concurrent phase A + serial merge."""
        return self.parallel_seconds + self.merge_seconds


def multigpu_louvain(
    graph: CSRGraph,
    num_devices: int = 4,
    *,
    parts: np.ndarray | None = None,
    config: GPULouvainConfig | None = None,
    rng: np.random.Generator | int | None = 0,
    phase_a_levels: int = 1,
    refine: bool = False,
    tracer: Tracer | NullTracer | None = None,
    **overrides,
) -> MultiGpuResult:
    """Hierarchical multi-device Louvain (coarse across, bucketed within).

    ``parts`` overrides the random device assignment.  Additional keyword
    overrides configure the per-device :func:`gpu_louvain` runs.

    ``phase_a_levels`` bounds how deep each device's local hierarchy goes
    before the global merge; one level (the default) keeps cross-device
    structure recoverable — deeper local hierarchies bake cut-blind
    merges in and lose modularity fast.  ``refine=True`` appends a
    warm-started pass over the *whole* graph after the merge (only
    meaningful when the graph fits a single device; off by default to
    stay faithful to the hierarchical multi-GPU architecture of [4]).

    ``tracer`` records ``run`` → ``level`` 0 (``optimization`` = the
    per-device phase, ``aggregation`` = the merge contraction), with
    the finishing :func:`gpu_louvain` run (and the ``refine`` run) nested
    as ``run`` spans of their own.
    """
    import time

    if config is None:
        config = GPULouvainConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")
    if phase_a_levels < 1:
        raise ValueError("phase_a_levels must be >= 1")
    from dataclasses import replace as _replace

    device_config = _replace(config, max_levels=phase_a_levels)
    n = graph.num_vertices
    if num_devices < 1:
        raise ValueError("need at least one device")
    if parts is None:
        parts = random_parts(n, num_devices, rng)
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (n,):
        raise ValueError("parts must assign one device per vertex")
    cut = cut_statistics(graph, parts)

    tracer = as_tracer(tracer)

    with tracer.span("run", solver="multigpu"):
        with tracer.span(
            "level", level=0, num_vertices=n, num_edges=graph.num_edges
        ) as level_span:
            # Phase A: every device clusters its induced subgraph
            # independently.
            local_comm = np.arange(n, dtype=np.int64)
            device_seconds: list[float] = []
            device_results: list[GPULouvainResult] = []
            with tracer.span("optimization") as opt_span:
                for device in range(int(parts.max()) + 1 if n else 0):
                    members = np.flatnonzero(parts == device)
                    start = time.perf_counter()
                    if members.size:
                        sub = induced_subgraph(graph, members)
                        result = gpu_louvain(sub, device_config)
                        device_results.append(result)
                        # Map subgraph communities back to disjoint global
                        # labels.
                        local_comm[members] = members[result.membership]
                    device_seconds.append(time.perf_counter() - start)
                sweeps_per_level = [
                    max((sum(r.sweeps_per_level) for r in device_results), default=0)
                ]
                opt_span.count(sweeps=sweeps_per_level[0])

            # Phase B: contract by the union of device clusterings, finish
            # on one device.
            merge_start = time.perf_counter()
            levels: list[np.ndarray] = []
            with tracer.span("aggregation"):
                contracted, dense = aggregate_vectorized(graph, local_comm)
            levels.append(dense)
            level_sizes = [(n, graph.num_edges)]
            modularity_per_level = [modularity(graph, flatten_levels(levels))]
            level_span.count(
                sweeps=sweeps_per_level[0], modularity=modularity_per_level[0]
            )

        finish = gpu_louvain(contracted, config, tracer=tracer)
        for level_map, size, sweeps in zip(
            finish.levels, finish.level_sizes, finish.sweeps_per_level
        ):
            levels.append(level_map)
            level_sizes.append(size)
            sweeps_per_level.append(sweeps)
            modularity_per_level.append(modularity(graph, flatten_levels(levels)))
        if refine:
            refined = gpu_louvain(
                graph, config, initial_communities=flatten_levels(levels), tracer=tracer
            )
            levels = list(refined.levels)
            level_sizes = list(refined.level_sizes)
            sweeps_per_level = list(refined.sweeps_per_level)
            modularity_per_level = list(refined.modularity_per_level)
        merge_seconds = time.perf_counter() - merge_start

    return MultiGpuResult(
        levels=levels,
        level_sizes=level_sizes,
        membership=flatten_levels(levels),
        # The last level's Q was computed on this very membership.
        modularity=modularity_per_level[-1],
        modularity_per_level=modularity_per_level,
        sweeps_per_level=sweeps_per_level,
        num_devices=num_devices,
        device_seconds=device_seconds,
        merge_seconds=merge_seconds,
        cut=cut,
        device_results=device_results,
    )
