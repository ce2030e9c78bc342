"""Sharded multi-process Louvain over shared-memory CSR.

Public surface: :func:`sharded_louvain` (drop-in peer of
:func:`~repro.core.gpu_louvain.gpu_louvain`, bit-identical output),
:class:`ShardConfig` (its knobs),
:class:`~repro.shard.partition.ShardPlan` (the vertex-to-shard
assignment), and the shared-memory plumbing in :mod:`repro.shard.shm`.
See ``DESIGN.md`` §11 for the protocol.
"""

from .engine import ShardConfig, sharded_louvain
from .partition import ShardPlan, bfs_partition, hash_partition
from .shm import ArraySpec, SharedArrays, attach_array
from .worker import SliceScorer, SyncShardTask, run_sync_worker

__all__ = [
    "ShardConfig",
    "sharded_louvain",
    "ShardPlan",
    "hash_partition",
    "bfs_partition",
    "ArraySpec",
    "SharedArrays",
    "attach_array",
    "SliceScorer",
    "SyncShardTask",
    "run_sync_worker",
]
