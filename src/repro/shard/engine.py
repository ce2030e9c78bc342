"""Sharded multi-process Louvain coordinator.

:func:`sharded_louvain` runs :func:`~repro.core.gpu_louvain.gpu_louvain`'s
level loop (optimize → aggregate → recurse); levels with at least
``ShardConfig.shard_min_vertices`` vertices optimize through the
**sharded phase**, coarser ones through the single-process engine.

The sharded phase is :func:`repro.core.mod_opt._sweep_loop` — the one
sweep loop of Alg. 1, with its commits, incremental Q tracking and stop
rule — with a worker pool as the scoring source.  The level's vertices
are split into one disjoint slice per shard
(:class:`~repro.shard.partition.ShardPlan`); each worker holds zero-copy
views of the level's CSR and of the live ``comm`` / ``volumes`` /
``sizes`` arrays in shared memory (:mod:`repro.shard.shm`) and scores
its slice of each bucket with the stock ``computeMove`` kernel through
its own sweep plan.  The coordinator commits centrally, per bucket, and
broadcasts every commit to the workers' slice plans.  Scoring is
per-vertex pure, so the trajectory — every sweep's moves and Q, and the
final membership — is bit-identical to the single-process vectorized
engine.

Tracing: each sharded level records an ``optimization`` span (attribute
``sharded=True``) carrying the usual sweep children, one ``shard`` child
per worker (moves / scored counters and worker CPU seconds), and
``workers_seconds_total`` / ``workers_seconds_critical`` counters — the
serial sum and the per-step max of worker time.  ``critical`` is a
model: what a perfectly concurrent host would pay for the worker phase
(the same emulation convention as :mod:`repro.parallel.multigpu`).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from time import process_time

import numpy as np

from ..core.config import GPULouvainConfig
from ..core.gpu_louvain import GPULouvainResult, _run
from ..core.mod_opt import (
    OptimizationOutcome,
    _count_phase,
    _sweep_loop,
    modularity_optimization,
)
from ..graph.csr import CSRGraph
from ..trace import NullTracer, Span, Tracer, current_trace_context
from .partition import ShardPlan
from .shm import SharedArrays
from .worker import SliceScorer, SyncShardTask, run_sync_worker

__all__ = ["ShardConfig", "sharded_louvain"]

#: How long the coordinator waits on one worker reply before declaring
#: the step lost (generous: suite levels take well under a second).
_WORKER_TIMEOUT_SECONDS = 600.0


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded driver (solver knobs live in GPULouvainConfig).

    ``pool`` selects how workers run: ``"fork"`` / ``"spawn"`` real
    processes over shared memory, or ``"inline"`` — same code path,
    executed serially in-process (deterministic tests, platforms without
    ``fork``).  Levels below ``shard_min_vertices`` vertices, and every
    level when ``workers == 1``, run the single-process engine.
    """

    workers: int = 2
    partition: str = "bfs"
    pool: str = "fork"
    shard_min_vertices: int = 192

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.pool not in ("fork", "spawn", "inline"):
            raise ValueError(f"unknown pool mode: {self.pool!r}")
        if self.partition not in ("bfs", "hash"):
            raise ValueError(f"unknown partition method: {self.partition!r}")


class _SyncPool:
    """The sharded scoring source of ``_sweep_loop`` for one level.

    :meth:`bind` copies the level's CSR and working state into shared
    memory and starts one lockstep worker per shard, each holding
    zero-copy views of the live arrays; :meth:`score` fans one bucket out
    and merges the replies; :meth:`mark_moved` queues each commit for
    every worker's slice plan.  In ``"inline"`` mode no processes exist
    and the slices are scored in-process through the identical code
    path.  Per-shard work is tallied in :attr:`shard_stats`.
    """

    def __init__(
        self, graph: CSRGraph, config: GPULouvainConfig, shard_config: ShardConfig
    ) -> None:
        self._graph = graph
        self._config = config
        self._shard_config = shard_config
        self._shared = SharedArrays()
        self._comm: np.ndarray | None = None
        self._tasks: list[SyncShardTask] = []
        self._scorers: dict[int, SliceScorer] = {}
        self._startup: dict[int, float] = {}
        self._procs: list = []
        self._task_queues: list = []
        self._result_queue = None
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Per shard: worker CPU ``seconds``, committed ``moves``, ``scored``.
        self.shard_stats: dict[int, dict[str, float]] = {}
        self.workers_total = 0.0
        self.workers_critical = 0.0

    def bind(
        self, comm: np.ndarray, volumes: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Share the level and start the workers; returns the shared views."""
        graph = self._graph
        config = self._config
        shared = self._shared
        shared.share("indptr", graph.indptr)
        shared.share("indices", graph.indices)
        shared.share("weights", graph.weights)
        k = shared.share("k", graph.weighted_degrees)
        comm = shared.share("comm", comm)
        volumes = shared.share("volumes", volumes)
        sizes = shared.share("sizes", sizes)
        specs = shared.specs()
        plan = ShardPlan.build(
            graph, self._shard_config.workers, method=self._shard_config.partition
        )
        slices: dict[int, np.ndarray] = {}
        for shard in range(plan.num_shards):
            movable = plan.shard_members(shard)
            if not (graph.degrees[movable] > 0).any():
                continue
            shared.share(f"movable-{shard}", movable)
            slices[shard] = movable
            self._tasks.append(
                SyncShardTask(
                    shard=shard,
                    specs=specs,
                    movable=shared.spec(f"movable-{shard}"),
                    resolution=config.resolution,
                    singleton_constraint=config.singleton_constraint,
                    degree_bucket_bounds=config.degree_bucket_bounds,
                )
            )
            self.shard_stats[shard] = {"seconds": 0.0, "moves": 0.0, "scored": 0.0}

        pool = self._shard_config.pool
        if pool == "inline":
            for task in self._tasks:
                scorer = SliceScorer(
                    graph, k, comm, volumes, sizes, slices[task.shard],
                    singleton_constraint=config.singleton_constraint,
                    resolution=config.resolution,
                    degree_bucket_bounds=config.degree_bucket_bounds,
                )
                self._scorers[task.shard] = scorer
                self._startup[task.shard] = scorer.build_seconds
        else:
            ctx = multiprocessing.get_context(pool)
            self._result_queue = ctx.Queue()
            for task in self._tasks:
                task_queue = ctx.Queue()
                proc = ctx.Process(
                    target=run_sync_worker,
                    args=(task, task_queue, self._result_queue),
                )
                proc.start()
                self._task_queues.append(task_queue)
                self._procs.append(proc)
        self._comm = comm
        return comm, volumes, sizes

    def mark_moved(
        self, movers: np.ndarray, old: np.ndarray, new: np.ndarray
    ) -> None:
        """Queue a committed batch for every worker's slice plan.

        Workers are quiescent between steps, so the batch is stamped at
        the start of their next step — inline scorers follow the
        identical deferred protocol (inside the per-shard timed region,
        since on a parallel host each worker stamps concurrently).
        """
        self._pending.append((movers, old, new))

    def score(self, bucket: int, members: np.ndarray) -> np.ndarray:
        """New labels of ``members`` (one bucket), scored across the shards."""
        commits = self._pending
        self._pending = []
        if self._shard_config.pool == "inline":
            replies = []
            for task in self._tasks:
                scorer = self._scorers[task.shard]
                t0 = process_time()  # match the worker-side CPU-time spans
                for movers, old, new in commits:
                    scorer.mark_moved(movers, old, new)
                movers, labels, scored = scorer.score(bucket)
                seconds = process_time() - t0 + self._startup.pop(task.shard, 0.0)
                replies.append((task.shard, movers, labels, seconds, scored))
        else:
            for task_queue in self._task_queues:
                task_queue.put((bucket, commits))
            replies = []
            errors = []
            for _ in self._tasks:
                status, payload = self._result_queue.get(
                    timeout=_WORKER_TIMEOUT_SECONDS
                )
                (replies if status == "ok" else errors).append(payload)
            if errors:
                detail = "; ".join(f"shard {s}: {msg}" for s, msg in errors)
                raise RuntimeError(f"sync shard workers failed: {detail}")

        new_comm = self._comm[members]
        step_seconds = []
        for shard, movers, labels, seconds, scored in replies:
            # Bucket members are sorted by vertex id, and so is every slice.
            new_comm[np.searchsorted(members, movers)] = labels
            stats = self.shard_stats[shard]
            stats["seconds"] += seconds
            stats["moves"] += int(movers.size)
            stats["scored"] += scored
            step_seconds.append(seconds)
        if step_seconds:
            self.workers_total += sum(step_seconds)
            self.workers_critical += max(step_seconds)
        return new_comm

    def close(self) -> None:
        """Shut the workers down and unlink the shared arrays (idempotent)."""
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._procs = []
        self._task_queues = []
        self._scorers = {}
        self._comm = None
        self._shared.close()


def _record_shard_metrics(shard_seconds: dict[int, float]) -> None:
    """Record per-worker CPU seconds into the process-wide metrics registry.

    Imported lazily: ``repro.obs`` pulls the bench/analyze stack, which
    imports the core solvers — a module-level import here would cycle.
    """
    from ..obs.metrics import get_registry

    registry = get_registry()
    if not registry.enabled:
        return
    cpu = registry.counter(
        "repro_shard_worker_cpu_seconds_total",
        "CPU seconds spent in shard workers, by shard.",
        labels=("shard",),
    )
    for shard, seconds in sorted(shard_seconds.items()):
        cpu.labels(shard=str(shard)).inc(seconds)


def _sync_phase(
    graph: CSRGraph,
    config: GPULouvainConfig,
    shard_config: ShardConfig,
    threshold: float,
    initial_communities: np.ndarray | None,
    tracer: Tracer | NullTracer,
) -> OptimizationOutcome:
    """One level's optimization phase: ``_sweep_loop`` scored by workers."""
    with tracer.span(
        "optimization",
        sharded=True,
        workers=shard_config.workers,
        partition=shard_config.partition,
        pool=shard_config.pool,
    ) as span:
        pool = _SyncPool(graph, config, shard_config)
        try:
            outcome = _sweep_loop(
                graph, config, threshold, initial_communities, scorer=pool, tracer=tracer
            )
            # The labels are a shared-memory view, which close() unlinks.
            outcome.communities = outcome.communities.copy()
        finally:
            pool.close()
        if tracer.enabled:
            trace_ctx = current_trace_context()
            for shard, stats in sorted(pool.shard_stats.items()):
                attributes: dict = {"shard": shard}
                if trace_ctx is not None:
                    # Workers are pure slice scorers with no spans of their
                    # own, so the coordinator stamps the request's trace id.
                    attributes["trace_id"] = trace_ctx.trace_id
                tracer.attach(
                    Span(
                        name="shard",
                        attributes=attributes,
                        counters={"moves": stats["moves"], "frontier": stats["scored"]},
                        seconds=stats["seconds"],
                    )
                )
            _count_phase(span, outcome)
            span.count(
                workers_seconds_total=pool.workers_total,
                workers_seconds_critical=pool.workers_critical,
            )
    _record_shard_metrics(
        {shard: stats["seconds"] for shard, stats in pool.shard_stats.items()}
    )
    return outcome


def sharded_louvain(
    graph: CSRGraph,
    config: GPULouvainConfig | None = None,
    *,
    shard: ShardConfig | None = None,
    initial_communities: np.ndarray | None = None,
    tracer: Tracer | NullTracer | None = None,
    **overrides,
) -> GPULouvainResult:
    """Multi-process Louvain over shared-memory CSR shards.

    A drop-in peer of :func:`~repro.core.gpu_louvain.gpu_louvain` (same
    level loop and result, bit-identical output); levels with at least
    ``shard.shard_min_vertices`` vertices optimize through the sharded
    phase.  Keyword overrides build the solver config, e.g.
    ``sharded_louvain(g, shard=ShardConfig(workers=4))``.  Requires the
    vectorized engine with the per-bucket commit discipline.
    """
    if config is None:
        config = GPULouvainConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")
    if config.engine != "vectorized":
        raise ValueError("the sharded driver requires the vectorized engine")
    if config.relaxed_updates:
        raise ValueError(
            "sharded_louvain requires the per-bucket commit discipline "
            "(relaxed_updates=False)"
        )
    if shard is None:
        shard = ShardConfig()

    def optimize(level_graph, config, threshold, *, initial_communities, cost_model, tracer):
        if (
            shard.workers > 1
            and level_graph.num_vertices >= shard.shard_min_vertices
            and level_graph.total_weight > 0.0
        ):
            return _sync_phase(
                level_graph, config, shard, threshold, initial_communities, tracer
            )
        return modularity_optimization(
            level_graph, config, threshold,
            initial_communities=initial_communities, tracer=tracer,
        )

    return _run(
        graph,
        config,
        initial_communities,
        tracer,
        optimize=optimize,
        engine="sharded",
        workers=shard.workers,
        partition=shard.partition,
        pool=shard.pool,
    )
