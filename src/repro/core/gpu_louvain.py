"""The full GPU Louvain driver — the paper's main algorithm.

Alternates :func:`~repro.core.mod_opt.modularity_optimization` (Alg. 1)
and :func:`~repro.core.aggregate.aggregate_gpu` (Alg. 3), choosing the
sweep threshold adaptively (``t_bin`` above ``bin_vertex_limit`` vertices,
``t_final`` below — Section 5's ``(10^-2, 10^-6)`` default), until a whole
stage improves modularity by less than ``t_final``.

Use :func:`gpu_louvain` with ``engine="vectorized"`` for speed or
``engine="simulated"`` for thread-level device statistics and simulated
kernel timings (small graphs only).  Pass a :class:`~repro.trace.Tracer`
via ``tracer=`` to record a run → level → phase → sweep span tree on
**either** engine (see :mod:`repro.trace`); with no tracer the hot path
is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..gpu.costmodel import CostModel
from ..gpu.profiler import RunProfile
from ..metrics.modularity import modularity
from ..metrics.teps import TepsResult, teps
from ..metrics.timing import RunTimings, Stopwatch
from ..result import LouvainResult, flatten_levels
from ..trace import NullTracer, Tracer, as_tracer
from .aggregate import aggregate_gpu
from .config import GPULouvainConfig
from .mod_opt import modularity_optimization

__all__ = ["GPULouvainResult", "gpu_louvain"]


@dataclass
class GPULouvainResult(LouvainResult):
    """A :class:`~repro.result.LouvainResult` plus device-side accounting.

    ``profile`` and ``simulated_seconds`` are only populated by the
    simulated engine; ``first_phase_*`` feed the TEPS metric for any
    engine.
    """

    profile: RunProfile | None = None
    simulated_seconds: float | None = None
    simulated_transfer_seconds: float | None = None
    first_phase_sweeps: int = 0
    first_phase_seconds: float = 0.0

    def teps(self, graph: CSRGraph) -> TepsResult:
        """TEPS of the first modularity-optimization phase (paper §3)."""
        return teps(graph, self.first_phase_sweeps, self.first_phase_seconds)


def gpu_louvain(
    graph: CSRGraph,
    config: GPULouvainConfig | None = None,
    *,
    initial_communities: np.ndarray | None = None,
    refine=None,
    tracer: Tracer | NullTracer | None = None,
    **overrides,
) -> GPULouvainResult:
    """Run the paper's algorithm on ``graph``.

    Keyword overrides build a fresh :class:`GPULouvainConfig`, e.g.
    ``gpu_louvain(g, threshold_bin=1e-3, engine="simulated")``.

    ``initial_communities`` warm-starts the first level from an existing
    partition instead of singletons — the dynamic-network-analytics use
    case the paper's introduction motivates: after small updates to the
    graph, re-clustering from the previous membership converges in far
    fewer sweeps than from scratch.

    ``refine`` is the Leiden-style well-connectedness hook — a callable
    ``(graph, communities, tracer) -> refined_labels`` (see
    :func:`~repro.core.refine.connected_refinement`).  When given, each
    level contracts by the **refined** partition instead of the raw
    optimisation outcome, so internally-disconnected communities become
    separate contraction units the next level merges (or keeps apart)
    on merit — and every reported community induces a connected
    subgraph.  ``None`` (the default) is the paper's plain Louvain
    pipeline, bit-identical to the pre-hook behaviour.

    ``tracer`` records the run as a span tree (``run`` → ``level`` →
    ``optimization``/[``refinement``]/``aggregation`` → ``sweep``);
    tracing never alters the computation, only observes it.
    """
    if config is None:
        config = GPULouvainConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")
    if initial_communities is not None:
        initial_communities = np.asarray(initial_communities, dtype=np.int64)
        if initial_communities.shape != (graph.num_vertices,):
            raise ValueError("initial_communities must assign one label per vertex")
        if initial_communities.size and (
            initial_communities.min() < 0
            or initial_communities.max() >= graph.num_vertices
        ):
            raise ValueError(
                "initial community labels must be existing vertex ids (0..n-1)"
            )

    tracer = as_tracer(tracer)
    if not tracer.enabled:
        return _run(graph, config, initial_communities, tracer, refine)
    with tracer.span(
        "run",
        engine=config.engine,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        warm_start=initial_communities is not None,
    ) as span:
        result = _run(graph, config, initial_communities, tracer, refine)
        span.count(
            modularity=result.modularity,
            num_levels=result.num_levels,
            num_communities=result.num_communities,
            sweeps=sum(result.sweeps_per_level),
        )
    return result


def _run(
    graph: CSRGraph,
    config: GPULouvainConfig,
    initial_communities: np.ndarray | None,
    tracer: Tracer | NullTracer,
    refine=None,
) -> GPULouvainResult:
    """:func:`gpu_louvain` body (config validated, tracer normalised).

    With a ``refine`` hook each level contracts by the refined
    partition, and the level's Q describes that refined membership —
    splitting a disconnected community never lowers Q (the pieces share
    no edges, so only the null-model cross term goes away), so the
    monotone stopping rule is unchanged.
    """
    timings = RunTimings()
    profile = RunProfile() if config.engine == "simulated" else None
    cost_model = (
        CostModel(config.device, config.cost_parameters)
        if config.engine == "simulated"
        else None
    )

    levels: list[np.ndarray] = []
    level_sizes: list[tuple[int, int]] = []
    sweeps_per_level: list[int] = []
    modularity_per_level: list[float] = []
    current = graph
    prev_q = -1.0
    first_phase_sweeps = 0
    first_phase_seconds = 0.0

    for level in range(config.max_levels):
        threshold = config.threshold_for(current.num_vertices)
        stage = timings.new_stage(current.num_vertices, current.num_edges)
        with tracer.span(
            "level",
            level=level,
            num_vertices=current.num_vertices,
            num_edges=current.num_edges,
            threshold=threshold,
        ) as level_span:
            with Stopwatch(stage, "optimization_seconds"):
                outcome = modularity_optimization(
                    current,
                    config,
                    threshold,
                    initial_communities=initial_communities if level == 0 else None,
                    cost_model=cost_model,
                    tracer=tracer,
                )
            if level == 0:
                first_phase_sweeps = outcome.sweeps
                first_phase_seconds = stage.optimization_seconds
            contract_by = outcome.communities
            if refine is not None:
                contract_by = refine(current, outcome.communities, tracer)
            with Stopwatch(stage, "aggregation_seconds"):
                agg = aggregate_gpu(
                    current,
                    contract_by,
                    config,
                    cost_model=cost_model,
                    tracer=tracer,
                )

            no_contraction = agg.graph.num_vertices == current.num_vertices
            # An aggregation that failed to contract onto the identity map is
            # a pure no-op level (no vertex moved, nothing merged): recording
            # it would inflate level counts in results and benchmarks without
            # changing the flattened membership.  Drop its records — unless it
            # is the only level, which keeps degenerate inputs (e.g. edgeless
            # graphs) well-formed.
            degenerate = (
                no_contraction
                and levels
                and np.array_equal(
                    agg.dense_map, np.arange(current.num_vertices, dtype=np.int64)
                )
            )
            if degenerate:
                timings.stages.pop()
                # The span stays in the trace (observability should show
                # the wasted level), labelled so reports can filter it.
                level_span.set(degenerate=True)
                break

            if profile is not None:
                profile.optimization.append(outcome.profile)
                profile.aggregation.append(agg.profile)

            levels.append(agg.dense_map)
            level_sizes.append((current.num_vertices, current.num_edges))
            sweeps_per_level.append(outcome.sweeps)
            stage.sweeps = outcome.sweeps
            stage.sweep_stats = outcome.profile.sweeps
            membership = flatten_levels(levels)
            q = modularity(graph, membership, resolution=config.resolution)
            modularity_per_level.append(q)
            stage.modularity = q
            level_span.count(sweeps=outcome.sweeps, modularity=q)

            current = agg.graph
            if q - prev_q < config.threshold_final or no_contraction:
                break
            prev_q = q

    membership = flatten_levels(levels)
    simulated_seconds = None
    simulated_transfer_seconds = None
    if profile is not None:
        # Publish device stats as live gauges.  Lazy import: repro.obs
        # pulls the bench/analyze stack, which imports this module.
        from ..obs.metrics import get_registry

        registry = get_registry()
        if registry.enabled:
            profile.record_metrics(registry)
    if profile is not None and cost_model is not None:
        launches = sum(
            len(p.kernels) for p in [*profile.optimization, *profile.aggregation]
        )
        simulated_seconds = cost_model.kernel_seconds(
            profile.total_warp_cycles(), launches=max(launches, 1)
        )
        # The one-off host->device copy of the input graph (Section 4.1).
        simulated_transfer_seconds = config.device.graph_transfer_seconds(
            graph.num_vertices, graph.num_stored_edges
        )

    return GPULouvainResult(
        levels=levels,
        level_sizes=level_sizes,
        membership=membership,
        modularity=modularity(graph, membership, resolution=config.resolution),
        modularity_per_level=modularity_per_level,
        sweeps_per_level=sweeps_per_level,
        timings=timings,
        profile=profile,
        simulated_seconds=simulated_seconds,
        simulated_transfer_seconds=simulated_transfer_seconds,
        first_phase_sweeps=first_phase_sweeps,
        first_phase_seconds=first_phase_seconds,
    )
