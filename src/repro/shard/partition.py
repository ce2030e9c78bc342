"""CSR partitioning for the sharded engine.

A *shard plan* assigns every vertex to exactly one of ``num_shards``
shards; each shard's worker scores that slice of every degree bucket
(see :mod:`repro.shard.engine`).

Two partitioners:

``hash``
    Deterministic splitmix64 hash of the vertex id modulo shard count.
    Balanced by construction, oblivious to structure.
``bfs``
    BFS-grown blocks: repeatedly seed from the lowest-id unassigned
    vertex and grow a frontier until the block reaches ``ceil(n /
    num_shards)`` vertices.  On road networks and meshes this produces
    contiguous blocks of neighbouring vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.thrust import gather_rows
from ..graph.csr import CSRGraph

__all__ = ["ShardPlan", "hash_partition", "bfs_partition"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def hash_partition(num_vertices: int, num_shards: int) -> np.ndarray:
    """Deterministic splitmix64 hash of vertex id modulo ``num_shards``."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    x = (np.arange(num_vertices, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX_1
    x ^= x >> np.uint64(27)
    x *= _MIX_2
    x ^= x >> np.uint64(31)
    return (x % np.uint64(num_shards)).astype(np.int64)


def bfs_partition(graph: CSRGraph, num_shards: int) -> np.ndarray:
    """BFS-grown contiguous blocks of ~equal vertex count.

    Seeds from the lowest-id unassigned vertex, grows a whole frontier
    at a time (vectorized), and closes the block once it reaches
    ``ceil(n / num_shards)`` vertices; a closing frontier is truncated
    at the target, the truncated tail reseeding the next block, so
    blocks stay within one frontier of balanced.  Disconnected
    components simply reseed; the last shard absorbs any remainder.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    n = graph.num_vertices
    parts = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return parts
    target = -(-n // num_shards)  # ceil
    indices = graph.indices
    shard = 0
    filled = 0
    unassigned = n
    while unassigned:
        if filled >= target and shard < num_shards - 1:
            shard += 1
            filled = 0
        room = unassigned if shard == num_shards - 1 else target - filled
        seed = int(np.argmax(parts < 0))
        frontier = np.array([seed], dtype=np.int64)
        parts[seed] = shard
        filled += 1
        unassigned -= 1
        room -= 1
        while frontier.size and room > 0:
            pos, _ = gather_rows(graph.indptr, frontier)
            nxt = np.unique(indices[pos])
            nxt = nxt[parts[nxt] < 0]
            if nxt.size > room:
                nxt = nxt[:room]
            if nxt.size == 0:
                break
            parts[nxt] = shard
            filled += int(nxt.size)
            unassigned -= int(nxt.size)
            room -= int(nxt.size)
            frontier = nxt
    return parts


@dataclass(frozen=True)
class ShardPlan:
    """One level's vertex-to-shard assignment.

    Invariant (pinned in ``tests/shard/test_partition.py``): every
    vertex lives in exactly one shard.
    """

    num_shards: int
    parts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", np.asarray(self.parts, dtype=np.int64))

    @classmethod
    def build(
        cls, graph: CSRGraph, num_shards: int, method: str = "bfs"
    ) -> "ShardPlan":
        """Partition ``graph`` into ``num_shards`` shards.

        ``method`` is ``"bfs"`` (contiguous blocks) or ``"hash"``
        (structure-oblivious, balanced).
        """
        if method == "hash":
            parts = hash_partition(graph.num_vertices, num_shards)
        elif method == "bfs":
            parts = bfs_partition(graph, num_shards)
        else:
            raise ValueError(f"unknown partition method: {method!r}")
        return cls(num_shards=num_shards, parts=parts)

    def shard_members(self, shard: int) -> np.ndarray:
        """All vertices assigned to ``shard``."""
        return np.flatnonzero(self.parts == shard)
