"""The Engine protocol: every detection algorithm behind one interface.

An :class:`Engine` owns one community-detection algorithm and exposes it
through two hooks that the CLI, :class:`~repro.stream.StreamSession` and
:mod:`repro.serve` all dispatch through:

* :meth:`Engine.detect` — a full (optionally warm-started) run on a
  graph, returning a :class:`~repro.result.LouvainResult`;
* :meth:`Engine.stream_batch` — one incremental re-optimization inside a
  streaming session (level-0 frontier pass, coarser full levels).

Three streaming-capable algorithms register under their ``--algo``
names:

``louvain``
    The paper's GPU Louvain pipeline, exactly as before — bit-identical
    results and trace spans to calling :func:`~repro.core.gpu_louvain`
    directly.
``leiden``
    Louvain plus the Leiden-style well-connectedness guarantee
    (:mod:`repro.core.refine`): an exploration run first (the plain
    Louvain trajectory, so quality never regresses on graphs Louvain
    already handles), then — only when the result contains an
    internally-disconnected community — one warm repair run that
    refines **every contraction commit**, which makes the final
    membership well-connected by construction.  Streaming batches
    always refine each contraction, closing the drift bug where CSR
    edge deletions strand disconnected fragments inside a stale
    community.
``lpa``
    Weighted GPU label propagation (:mod:`repro.core.label_prop`) — a
    single-level method reusing the bucketed sub-warp machinery; the
    streaming path seeds the propagation from the delta frontier.

The sequential and parallel reference solvers (``seq``, ``plm``,
``lu``, ``coarse``, ``sort``, ``multigpu``) register as detect-only
engines behind the same protocol, so ``repro detect`` dispatches every
solver uniformly.

Use :func:`get_engine` to resolve a name::

    engine = get_engine("leiden")
    result = engine.detect(graph, config, tracer=tracer)
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..result import LouvainResult, StreamResult
from ..trace import NullTracer, Tracer
from .config import GPULouvainConfig
from .gpu_louvain import gpu_louvain
from .label_prop import label_propagation
from .refine import connected_refinement

__all__ = [
    "ALGO_NAMES",
    "Engine",
    "LabelPropagationEngine",
    "LeidenEngine",
    "LouvainEngine",
    "SolverEngine",
    "get_engine",
]


def _connected_hook(graph, communities, tracer):
    """The per-contraction refine hook: split disconnected communities."""
    return connected_refinement(graph, communities, tracer=tracer).refined


class Engine(ABC):
    """One detection algorithm behind the shared detect/stream interface.

    Class attributes describe capabilities: ``supports_warm_start``
    (whether :meth:`detect` accepts ``initial_communities``) and
    ``supports_stream`` (whether the engine can drive a
    :class:`~repro.stream.StreamSession`).  ``refine_hook`` is the
    per-contraction refinement callable threaded through the level
    loops (``None`` = contract by the raw optimisation outcome).
    """

    name: str = "?"
    supports_warm_start: bool = True
    supports_stream: bool = True
    refine_hook = None

    @abstractmethod
    def detect(
        self,
        graph,
        config: GPULouvainConfig | None = None,
        *,
        initial_communities: np.ndarray | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> LouvainResult:
        """Run the algorithm on ``graph`` (optionally warm-started)."""

    def stream_batch(self, session, graph, frontier) -> StreamResult:
        """One incremental batch inside ``session`` (already patched graph).

        The default drives the session's Louvain-style pipeline
        (frontier level 0, full coarser levels) with this engine's
        ``refine_hook`` applied before every contraction commit.
        """
        return session._cluster_stream(graph, frontier, refine=self.refine_hook)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


class LouvainEngine(Engine):
    """The paper's GPU Louvain algorithm — the default engine."""

    name = "louvain"

    def detect(
        self,
        graph,
        config: GPULouvainConfig | None = None,
        *,
        initial_communities: np.ndarray | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> LouvainResult:
        return gpu_louvain(
            graph,
            config,
            initial_communities=initial_communities,
            tracer=tracer,
        )


class LeidenEngine(Engine):
    """Louvain with the Leiden well-connectedness guarantee.

    ``detect`` first runs the plain Louvain pipeline (identical
    trajectory and quality), then audits the result with
    :func:`~repro.core.refine.connected_refinement`.  Only when some
    community is internally disconnected does a warm **repair run**
    execute: it starts from the refined (split) partition and refines
    every contraction commit, so its output is well-connected by
    construction — each stored level contracts by connected components,
    and connectivity composes down the hierarchy.  One repair run
    therefore always suffices.

    Streaming batches refine every contraction directly (the level-0
    pass is warm-started from a near-converged membership, so the
    refinement splits are small and cheap).
    """

    name = "leiden"
    refine_hook = staticmethod(_connected_hook)

    def detect(
        self,
        graph,
        config: GPULouvainConfig | None = None,
        *,
        initial_communities: np.ndarray | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> LouvainResult:
        result = gpu_louvain(
            graph,
            config,
            initial_communities=initial_communities,
            tracer=tracer,
        )
        outcome = connected_refinement(graph, result.membership, tracer=tracer)
        if outcome.changed:
            result = gpu_louvain(
                graph,
                config,
                initial_communities=outcome.refined,
                refine=self.refine_hook,
                tracer=tracer,
            )
        return result


class LabelPropagationEngine(Engine):
    """Weighted GPU label propagation (single-level, no modularity goal)."""

    name = "lpa"

    def detect(
        self,
        graph,
        config: GPULouvainConfig | None = None,
        *,
        initial_communities: np.ndarray | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> LouvainResult:
        return label_propagation(
            graph,
            config,
            initial_communities=initial_communities,
            tracer=tracer,
        )

    def stream_batch(self, session, graph, frontier) -> StreamResult:
        """Frontier-seeded propagation warm-started from the membership."""
        result = label_propagation(
            graph,
            session.config.louvain,
            initial_communities=session.membership,
            frontier=frontier,
            tracer=session.tracer,
        )
        size = int(np.asarray(frontier).size)
        return StreamResult(
            levels=result.levels,
            level_sizes=result.level_sizes,
            membership=result.membership,
            modularity=result.modularity,
            modularity_per_level=result.modularity_per_level,
            sweeps_per_level=result.sweeps_per_level,
            timings=result.timings,
            frontier_size=size,
            frontier_fraction=size / max(graph.num_vertices, 1),
            mode="stream",
        )


class SolverEngine(Engine):
    """Adapter putting the reference solvers behind :meth:`detect`.

    The sequential baseline and the related-work parallel solvers take
    plain thresholds rather than the full config; this adapter maps the
    shared :class:`~repro.core.GPULouvainConfig` onto each solver's
    signature.  They support neither warm starts nor streaming.
    """

    supports_warm_start = False
    supports_stream = False

    def __init__(self, name: str, runner, **options) -> None:
        self.name = name
        self._runner = runner
        self._options = options

    def detect(
        self,
        graph,
        config: GPULouvainConfig | None = None,
        *,
        initial_communities: np.ndarray | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> LouvainResult:
        if initial_communities is not None:
            raise ValueError(
                f"engine {self.name!r} does not support warm starts"
            )
        if config is None:
            config = GPULouvainConfig()
        return self._runner(graph, config, **self._options)


def _run_seq(graph, config):
    from ..seq.louvain import louvain

    return louvain(graph, threshold=config.threshold_final)


def _run_plm(graph, config):
    from ..parallel.plm import plm_louvain

    return plm_louvain(graph, threshold=config.threshold_final)


def _run_lu(graph, config):
    from ..parallel.lu_openmp import lu_louvain

    return lu_louvain(
        graph,
        threshold_bin=config.threshold_bin,
        threshold_final=config.threshold_final,
        bin_vertex_limit=config.bin_vertex_limit,
    )


def _run_coarse(graph, config):
    from ..parallel.coarse import coarse_louvain

    return coarse_louvain(graph, threshold=config.threshold_final)


def _run_sort(graph, config):
    from ..parallel.sortbased import sort_based_louvain

    return sort_based_louvain(graph, threshold=config.threshold_final)


def _run_multigpu(graph, config, devices=4):
    from ..parallel.multigpu import multigpu_louvain

    return multigpu_louvain(
        graph,
        num_devices=devices,
        threshold_bin=config.threshold_bin,
        threshold_final=config.threshold_final,
        bin_vertex_limit=config.bin_vertex_limit,
    )


_SOLVER_RUNNERS = {
    "seq": _run_seq,
    "plm": _run_plm,
    "lu": _run_lu,
    "coarse": _run_coarse,
    "sort": _run_sort,
    "multigpu": _run_multigpu,
}

#: The streaming-capable algorithm names (``--algo`` choices).
ALGO_NAMES = ("louvain", "leiden", "lpa")

_ALGO_CLASSES = {
    "louvain": LouvainEngine,
    "leiden": LeidenEngine,
    "lpa": LabelPropagationEngine,
}


def get_engine(name: str, **options) -> Engine:
    """Resolve an engine by name (``--algo`` / ``--solver`` values).

    ``options`` are engine-specific construction arguments (``multigpu``
    takes ``devices``).  Raises :class:`ValueError` for unknown names,
    listing the valid ones.
    """
    if name in _ALGO_CLASSES:
        if options:
            raise TypeError(f"engine {name!r} takes no options")
        return _ALGO_CLASSES[name]()
    if name in _SOLVER_RUNNERS:
        return SolverEngine(name, _SOLVER_RUNNERS[name], **options)
    valid = sorted((*_ALGO_CLASSES, *_SOLVER_RUNNERS))
    raise ValueError(f"unknown engine: {name!r} (expected one of {valid})")
