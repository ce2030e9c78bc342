"""Per-shard worker: one shard's slice of every bucket, scored in lockstep.

A worker attaches to the coordinator's shared-memory segments
(:mod:`repro.shard.shm`), builds zero-copy ``CSRGraph`` views, and
scores its shard's slice of whichever degree bucket the coordinator's
sweep loop (:func:`repro.core.mod_opt._sweep_loop`, driven from
:mod:`repro.shard.engine`) asks for, against the live shared
``comm`` / ``volumes`` / ``sizes`` arrays.  Workers never commit: the
coordinator commits every bucket centrally and relays each commit so the
worker's sweep plan sees every global move.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import process_time

import numpy as np

from ..core.buckets import degree_buckets
from ..core.compute_move import compute_moves_vectorized
from ..core.sweep_plan import SweepPlan
from ..graph.csr import CSRGraph
from .shm import ArraySpec, attach_array

__all__ = ["SliceScorer", "SyncShardTask", "run_sync_worker"]


class SliceScorer:
    """Sweep-plan-backed bucket slices for one shard.

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
    engine invariant), so the sharded engine's differential guarantee
    carries over unchanged.
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
    """Persistent worker setup: shm specs plus scoring knobs.

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


def run_sync_worker(task: SyncShardTask, task_queue, result_queue) -> None:
    """Lockstep worker loop: score this shard's slice of one bucket per request.

    The coordinator's sweep loop drives the bucket schedule; each message
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
            # CPU time, not wall time: workers time-slicing fewer cores
            # would otherwise bill their descheduled time too.
            t0 = process_time()
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
