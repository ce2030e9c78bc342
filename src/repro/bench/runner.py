"""Experiment driver: runs solvers over the suite and collects result rows.

Each benchmark script under ``benchmarks/`` is a thin wrapper around these
functions, so the experiment logic is testable and reusable from Python.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.gpu_louvain import gpu_louvain
from ..graph.csr import CSRGraph
from ..result import LouvainResult
from ..seq.louvain import louvain as sequential_louvain
from ..trace import RunReport, Span, Tracer, report_from_result
from .suite import SUITE, SuiteEntry

__all__ = [
    "timed",
    "SolverRun",
    "run_gpu",
    "run_sequential",
    "suite_report",
    "Table1Row",
    "table1_rows",
    "ThresholdCell",
    "threshold_grid",
]


def timed(fn: Callable[[], LouvainResult]) -> tuple[LouvainResult, float]:
    """Run ``fn`` and return ``(result, wall_clock_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@dataclass(frozen=True)
class SolverRun:
    """One solver execution on one graph."""

    name: str
    seconds: float
    modularity: float
    levels: int
    result: LouvainResult


def run_gpu(
    graph: CSRGraph,
    *,
    threshold_bin: float = 1e-2,
    threshold_final: float = 1e-6,
    bin_vertex_limit: int = 1_000,
    tracer: Tracer | None = None,
    **overrides,
) -> SolverRun:
    """Run the GPU engine with suite-scaled adaptive thresholds.

    ``bin_vertex_limit`` defaults to 1k here (not the paper's 100k)
    because the analog graphs are 200-4000x smaller; scaled this way the
    early (large) levels run under t_bin and only the contracted tail
    under t_final, as in the paper — including on the nlpkkt analogs,
    whose expensive mid-hierarchy phases the paper explicitly observes
    happening "while we are still using the t_bin threshold".
    """
    result, seconds = timed(
        lambda: gpu_louvain(
            graph,
            threshold_bin=threshold_bin,
            threshold_final=threshold_final,
            bin_vertex_limit=bin_vertex_limit,
            tracer=tracer,
            **overrides,
        )
    )
    return SolverRun("gpu", seconds, result.modularity, result.num_levels, result)


#: Suite-scaled GPU defaults (see :func:`run_gpu`) — also the config
#: meta :func:`suite_report` fingerprints trajectory entries under.
SUITE_GPU_DEFAULTS = {
    "threshold_bin": 1e-2,
    "threshold_final": 1e-6,
    "bin_vertex_limit": 1_000,
}


def suite_report(
    entry: SuiteEntry,
    *,
    engine: str = "vectorized",
    scale: float = 1.0,
    **overrides,
) -> RunReport:
    """One traced GPU run of a suite entry as a :class:`RunReport`.

    The report's ``meta`` carries the graph name, engine, scale, and the
    resolved config values (``SUITE_GPU_DEFAULTS`` + ``overrides``) —
    everything :func:`repro.obs.trajectory.entry_from_report` needs to
    key a stable trajectory entry.
    """
    graph = entry.load(scale)
    config = {**SUITE_GPU_DEFAULTS, **overrides}
    tracer = Tracer()
    run = run_gpu(graph, engine=engine, tracer=tracer, **config)
    return report_from_result(
        run.result,
        tracer=tracer,
        kind="run",
        graph=entry.name,
        engine=engine,
        scale=scale,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        seconds=round(run.seconds, 6),
        **config,
    )


def run_sequential(
    graph: CSRGraph,
    *,
    adaptive: bool = False,
    threshold: float = 1e-6,
    threshold_bin: float = 1e-2,
    bin_vertex_limit: int = 1_000,
    tracer: Tracer | None = None,
) -> SolverRun:
    """Run the sequential baseline (original or adaptive-threshold)."""
    result, seconds = timed(
        lambda: sequential_louvain(
            graph,
            threshold=threshold,
            adaptive=adaptive,
            threshold_bin=threshold_bin,
            threshold_final=threshold,
            bin_vertex_limit=bin_vertex_limit,
            tracer=tracer,
        )
    )
    name = "seq-adaptive" if adaptive else "seq"
    return SolverRun(name, seconds, result.modularity, result.num_levels, result)


@dataclass(frozen=True)
class Table1Row:
    """One row of the Table-1 reproduction."""

    entry: SuiteEntry
    num_vertices: int
    num_edges: int
    seq_seconds: float
    gpu_seconds: float
    seq_modularity: float
    gpu_modularity: float
    #: Full solver results and the span trees their runs recorded, kept
    #: so benchmarks can emit per-level ``repro.trace`` reports without
    #: re-running the suite.
    seq_result: LouvainResult | None = None
    gpu_result: LouvainResult | None = None
    seq_spans: list[Span] = field(default_factory=list)
    gpu_spans: list[Span] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Measured sequential / GPU runtime ratio."""
        return self.seq_seconds / self.gpu_seconds if self.gpu_seconds > 0 else 0.0

    @property
    def relative_modularity(self) -> float:
        """GPU modularity / sequential modularity."""
        if self.seq_modularity == 0:
            return 1.0
        return self.gpu_modularity / self.seq_modularity


def table1_rows(
    entries: Sequence[SuiteEntry] | None = None,
    *,
    scale: float = 1.0,
    adaptive_seq: bool = False,
) -> list[Table1Row]:
    """Reproduce Table 1: per graph, sizes and seq/GPU runtimes.

    ``adaptive_seq=True`` gives the Figure-4 variant where the sequential
    baseline also uses the adaptive thresholds.  Both runs are traced, so
    their seconds include the tracing.
    """
    rows: list[Table1Row] = []
    for entry in entries if entries is not None else SUITE:
        graph = entry.load(scale)
        seq_tracer, gpu_tracer = Tracer(), Tracer()
        seq = run_sequential(graph, adaptive=adaptive_seq, tracer=seq_tracer)
        gpu = run_gpu(graph, tracer=gpu_tracer)
        rows.append(
            Table1Row(
                entry=entry,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                seq_seconds=seq.seconds,
                gpu_seconds=gpu.seconds,
                seq_modularity=seq.modularity,
                gpu_modularity=gpu.modularity,
                seq_result=seq.result,
                gpu_result=gpu.result,
                seq_spans=seq_tracer.roots,
                gpu_spans=gpu_tracer.roots,
            )
        )
    return rows


@dataclass(frozen=True)
class ThresholdCell:
    """One (t_bin, t_final) cell of the Figure-1/2 grids."""

    threshold_bin: float
    threshold_final: float
    mean_relative_modularity: float
    mean_seconds: float
    per_graph_seconds: tuple[float, ...]


def threshold_grid(
    entries: Sequence[SuiteEntry],
    threshold_bins: Sequence[float],
    threshold_finals: Sequence[float],
    *,
    scale: float = 1.0,
) -> list[ThresholdCell]:
    """Sweep the (t_bin, t_final) grid of figures 1 and 2.

    Relative modularity is against the fixed sequential baseline of each
    graph, as in Figure 1.
    """
    graphs = [entry.load(scale) for entry in entries]
    baselines = [run_sequential(g).modularity for g in graphs]
    cells: list[ThresholdCell] = []
    for t_bin in threshold_bins:
        for t_final in threshold_finals:
            if t_final > t_bin:
                continue
            rel_mods: list[float] = []
            secs: list[float] = []
            for graph, base_q in zip(graphs, baselines):
                run = run_gpu(
                    graph, threshold_bin=t_bin, threshold_final=t_final
                )
                rel_mods.append(run.modularity / base_q if base_q else 1.0)
                secs.append(run.seconds)
            cells.append(
                ThresholdCell(
                    threshold_bin=t_bin,
                    threshold_final=t_final,
                    mean_relative_modularity=float(np.mean(rel_mods)),
                    mean_seconds=float(np.mean(secs)),
                    per_graph_seconds=tuple(secs),
                )
            )
    return cells
