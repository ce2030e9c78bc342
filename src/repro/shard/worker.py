"""Per-shard worker: restricted modularity optimization over shared CSR.

A worker attaches to the coordinator's shared-memory segments
(:mod:`repro.shard.shm`), builds zero-copy ``CSRGraph`` views, and runs
the paper's bucketed ``computeMove`` sweeps (Alg. 1) **restricted to the
interior vertices of one shard**.  Interior vertices of different shards
are never adjacent (see :mod:`repro.shard.partition`), so concurrent
workers discover their candidate communities through disjoint
neighbourhoods — the move *decisions* cannot race.  What can go stale is
the scoring: a community spanning two shards has its volume updated by
both workers' private bookkeeping, each blind to the other.  Workers are
therefore **proposers, not committers** — the coordinator re-validates
every proposal batch against the authoritative partition with exact
modularity deltas (:mod:`repro.shard.engine`) before any label changes.

The sweep discipline mirrors the active-mask branch of
``repro.core.mod_opt._sweep_loop`` (a stream batch's level 0): an active
mask over the movable set, per-bucket extraction at processing time (a
commit in an earlier bucket of the same sweep can re-activate vertices a
later bucket must score), scoring deactivates, commits re-activate the
movers and their movable neighbours.  The sweep gain that drives the stopping rule
is exact over the worker's *local* view: the internal-weight delta over
the movers' CSR rows plus the volume-square delta over affected
communities — no per-sweep full-edge rescans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import process_time

import numpy as np

from ..core.buckets import bucket_index, degree_buckets
from ..core.compute_move import compute_moves_vectorized
from ..core.mod_opt import _sweep_internal_delta
from ..core.sweep_plan import SweepPlan
from ..gpu.thrust import gather_rows
from ..graph.csr import CSRGraph
from ..trace import Span, TraceContext
from .shm import ArraySpec, attach_array

__all__ = [
    "ShardTask",
    "ShardProposal",
    "SliceScorer",
    "SyncShardTask",
    "optimize_shard",
    "run_worker",
    "run_sync_worker",
    "optimize_interior",
]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs: shm specs plus scalar knobs.

    ``trace`` is the coordinator's :class:`~repro.trace.TraceContext`
    (picklable, rides the command pipe): when set, the worker builds a
    ``shard`` span tagged with its trace id so the coordinator can
    re-parent it into the request's stitched tree.
    """

    shard: int
    specs: dict[str, ArraySpec]
    movable: ArraySpec  # int64 global vertex ids this worker may move
    threshold: float
    max_sweeps: int
    resolution: float
    singleton_constraint: bool
    degree_bucket_bounds: tuple[int, ...]
    group_sizes: tuple[int, ...]
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ShardProposal:
    """One worker's proposed label changes (global vertex ids).

    ``span`` is the worker-built ``shard`` span (present when the task
    carried a trace context) — the coordinator attaches it under its own
    phase span, so cross-process work lands in the same trace tree.
    """

    shard: int
    movers: np.ndarray
    labels: np.ndarray
    sweeps: int
    moved: int
    scored: int
    seconds: float
    span: Span | None = None


def optimize_interior(
    graph: CSRGraph,
    k: np.ndarray,
    comm: np.ndarray,
    movable: np.ndarray,
    *,
    threshold: float,
    max_sweeps: int,
    resolution: float = 1.0,
    singleton_constraint: bool = True,
    degree_bucket_bounds: tuple[int, ...] = (),
    group_sizes: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Bucketed sweeps restricted to ``movable``; labels outside are frozen.

    Works on a private copy of ``comm``; returns ``(movers, labels,
    sweeps, scored)`` where ``movers`` are the vertices whose final label
    differs from the input and ``labels`` their proposed communities.
    """
    n = graph.num_vertices
    two_m = graph.total_weight
    comm_in = np.asarray(comm, dtype=np.int64)
    comm_local = comm_in.copy()
    movable = np.asarray(movable, dtype=np.int64)
    if n == 0 or two_m == 0.0 or movable.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0

    volumes = np.bincount(comm_local, weights=k, minlength=n)
    sizes = np.bincount(comm_local, minlength=n)
    movable_mask = np.zeros(n, dtype=bool)
    movable_mask[movable] = True
    active = movable_mask & (graph.degrees > 0)

    template = degree_buckets(graph.degrees, degree_bucket_bounds, group_sizes)
    vbucket = bucket_index(graph.degrees, degree_bucket_bounds)
    bucket_masks = [vbucket == bucket.index for bucket in template]
    scratch = np.zeros(n, dtype=bool)

    sweeps = 0
    scored = 0
    while sweeps < max_sweeps and active.any():
        sweeps += 1
        comm_before = comm_local.copy()
        vol_before = volumes.copy()
        for index in range(len(template)):
            members = np.flatnonzero(active & bucket_masks[index])
            if members.size == 0:
                continue
            scored += int(members.size)
            active[members] = False
            new_comm = compute_moves_vectorized(
                graph,
                comm_local,
                volumes,
                sizes,
                members,
                k=k,
                singleton_constraint=singleton_constraint,
                resolution=resolution,
            )
            changed = new_comm != comm_local[members]
            if not changed.any():
                continue
            movers = members[changed]
            old = comm_local[movers]
            new = new_comm[changed]
            comm_local[movers] = new
            np.add.at(volumes, old, -k[movers])
            np.add.at(volumes, new, k[movers])
            np.add.at(sizes, old, -1)
            np.add.at(sizes, new, 1)
            # Re-activate whatever the moves affect within the movable
            # set: the movers themselves and their movable neighbours.
            pos, _ = gather_rows(graph.indptr, movers)
            nbs = graph.indices[pos]
            active[nbs[movable_mask[nbs]]] = True
            active[movers] = True

        movers_sweep = np.flatnonzero(comm_local != comm_before)
        if movers_sweep.size == 0:
            break
        internal_delta = _sweep_internal_delta(
            graph, comm_before, comm_local, movers_sweep, scratch
        )
        affected = np.unique(
            np.concatenate([comm_before[movers_sweep], comm_local[movers_sweep]])
        )
        volsq_delta = float(np.square(volumes[affected]).sum()) - float(
            np.square(vol_before[affected]).sum()
        )
        gain = internal_delta / two_m - resolution * volsq_delta / (two_m * two_m)
        if gain < threshold:
            break

    movers = np.flatnonzero(comm_local != comm_in)
    return movers, comm_local[movers], sweeps, scored


def optimize_shard(task: ShardTask) -> ShardProposal:
    """Worker entry: attach shm views, optimize, detach, return proposal.

    ``seconds`` is per-process CPU time, not wall time: concurrent
    workers time-slicing a smaller core count would otherwise bill their
    descheduled time too, wrecking the total/critical concurrency
    accounting in the coordinator.
    """
    t0 = process_time()
    handles = {name: attach_array(spec) for name, spec in task.specs.items()}
    movable_handle = attach_array(task.movable)
    try:
        graph = CSRGraph(
            indptr=handles["indptr"].array,
            indices=handles["indices"].array,
            weights=handles["weights"].array,
        )
        movers, labels, sweeps, scored = optimize_interior(
            graph,
            handles["k"].array,
            handles["comm"].array,
            movable_handle.array,
            threshold=task.threshold,
            max_sweeps=task.max_sweeps,
            resolution=task.resolution,
            singleton_constraint=task.singleton_constraint,
            degree_bucket_bounds=task.degree_bucket_bounds,
            group_sizes=task.group_sizes,
        )
        # Copy out before detaching: the views die with the handles.
        movers = movers.copy()
        labels = labels.copy()
    finally:
        for handle in handles.values():
            handle.close()
        movable_handle.close()
    seconds = process_time() - t0
    span = None
    if task.trace is not None:
        span = Span(
            "shard",
            attributes={
                "shard": task.shard,
                "trace_id": task.trace.trace_id,
                "worker_pid": os.getpid(),
            },
            counters={
                "moves": float(movers.size),
                "sweeps": float(sweeps),
                "frontier": float(scored),
            },
            seconds=seconds,
        )
    return ShardProposal(
        shard=task.shard,
        movers=movers,
        labels=labels,
        sweeps=sweeps,
        moved=int(movers.size),
        scored=scored,
        seconds=seconds,
        span=span,
    )


def run_worker(task: ShardTask, queue) -> None:
    """Process target: run :func:`optimize_shard`, ship result or error."""
    try:
        queue.put(("ok", optimize_shard(task)))
    except BaseException as exc:  # noqa: BLE001 - must reach the coordinator
        queue.put(("error", (task.shard, repr(exc))))


class SliceScorer:
    """Sweep-plan-backed bucket slices for one shard (sync mode).

    Builds the stock per-phase :class:`~repro.core.sweep_plan.SweepPlan`
    over this shard's slice of each degree bucket, so the worker enjoys
    the same cached edge gathers, pair tables, and delta scoring the
    single-process baseline does — plan-less slice scoring would redo an
    O(edges) sort per bucket per sweep that the stock engine amortizes
    away.  The plan's validity machinery needs to see *every* commit
    (moves from other shards invalidate this shard's pair rows too), so
    the coordinator broadcasts each bucket's committed ``(movers, old,
    new)`` and :meth:`mark_moved` relays them before the next scoring.
    Plan-backed scoring is bit-identical to plan-less scoring (a stock
    engine invariant), so sync mode's differential guarantee carries
    over unchanged.
    """

    def __init__(
        self,
        graph: CSRGraph,
        k: np.ndarray,
        comm: np.ndarray,
        volumes: np.ndarray,
        sizes: np.ndarray,
        movable: np.ndarray,
        *,
        singleton_constraint: bool,
        resolution: float,
        degree_bucket_bounds: tuple[int, ...],
        group_sizes: tuple[int, ...] = (),
    ) -> None:
        t0 = process_time()
        self.graph = graph
        self.k = k
        self.comm = comm
        self.volumes = volumes
        self.sizes = sizes
        self.singleton_constraint = singleton_constraint
        self.resolution = resolution
        movable = np.asarray(movable, dtype=np.int64)
        buckets = [
            bucket
            for bucket in degree_buckets(
                graph.degrees, degree_bucket_bounds, group_sizes, vertices=movable
            )
            if bucket.size
        ]
        self._position = {bucket.index: i for i, bucket in enumerate(buckets)}
        self.plan = SweepPlan.build(graph, buckets)
        self.plan.track_validity = True
        self._comm32 = self.plan.bind_communities(comm)
        #: CPU seconds spent building the plan — per-shard work a parallel
        #: host overlaps, so callers fold it into the first step's span.
        self.build_seconds = process_time() - t0

    def mark_moved(
        self, movers: np.ndarray, old: np.ndarray, new: np.ndarray
    ) -> None:
        """Stamp a committed batch (from any shard) into the plan."""
        self.plan.mark_moved(movers, old, new)
        if self._comm32 is not None:
            self._comm32[movers] = new

    def score(self, bucket: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Score one bucket's slice; returns ``(movers, labels, scored)``."""
        position = self._position.get(int(bucket))
        if position is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, 0
        bucket_plan = self.plan.for_bucket(position)
        members = bucket_plan.bucket.members
        new_comm = compute_moves_vectorized(
            self.graph,
            self.comm,
            self.volumes,
            self.sizes,
            members,
            k=self.k,
            singleton_constraint=self.singleton_constraint,
            resolution=self.resolution,
            plan=bucket_plan,
        )
        changed = new_comm != self.comm[members]
        return members[changed], new_comm[changed], int(members.size)


@dataclass(frozen=True)
class SyncShardTask:
    """Persistent sync-mode worker setup: shm specs plus scoring knobs.

    ``specs`` must cover ``indptr`` / ``indices`` / ``weights`` / ``k`` /
    ``comm`` / ``volumes`` / ``sizes`` — the last three are *live*: the
    coordinator mutates them in place between bucket steps and the
    worker's zero-copy views observe every commit without any message
    traffic.
    """

    shard: int
    specs: dict[str, ArraySpec]
    movable: ArraySpec
    resolution: float
    singleton_constraint: bool
    degree_bucket_bounds: tuple[int, ...]
    trace: TraceContext | None = None


def run_sync_worker(task: SyncShardTask, task_queue, result_queue) -> None:
    """Lockstep worker loop: score one bucket's interior slice per request.

    The coordinator drives the stock sweep/bucket schedule; each message
    is ``(bucket, commits)`` where ``commits`` is a list of ``(movers,
    old, new)`` batches committed since this worker's previous step —
    the worker stamps them into its sweep plan (delta scoring and pair
    caches must observe *every* global move) before scoring.  The reply
    is ``(shard, movers, labels, seconds, scored)`` for this shard's
    slice of that bucket, scored with the stock ``computeMove`` kernel
    against the *current* shared state.  Scoring is per-vertex pure, so
    the union of all shards' replies is bit-identical to one
    single-process scoring of the whole bucket.  ``None`` shuts the
    worker down.
    """
    handles = {name: attach_array(spec) for name, spec in task.specs.items()}
    movable_handle = attach_array(task.movable)
    try:
        graph = CSRGraph(
            indptr=handles["indptr"].array,
            indices=handles["indices"].array,
            weights=handles["weights"].array,
        )
        scorer = SliceScorer(
            graph,
            handles["k"].array,
            handles["comm"].array,
            handles["volumes"].array,
            handles["sizes"].array,
            movable_handle.array,
            singleton_constraint=task.singleton_constraint,
            resolution=task.resolution,
            degree_bucket_bounds=task.degree_bucket_bounds,
        )
        startup = scorer.build_seconds  # billed to the first step's span
        while True:
            message = task_queue.get()
            if message is None:
                break
            bucket, commits = message
            t0 = process_time()  # CPU time: see optimize_shard's note
            try:
                for movers, old, new in commits:
                    scorer.mark_moved(movers, old, new)
                movers, labels, scored = scorer.score(int(bucket))
                result_queue.put(
                    (
                        "ok",
                        (
                            task.shard,
                            movers.copy(),
                            labels.copy(),
                            process_time() - t0 + startup,
                            scored,
                        ),
                    )
                )
                startup = 0.0
            except BaseException as exc:  # noqa: BLE001 - reach coordinator
                result_queue.put(("error", (task.shard, repr(exc))))
                break
    finally:
        for handle in handles.values():
            handle.close()
        movable_handle.close()
