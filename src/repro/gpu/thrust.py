"""NumPy-backed analogues of the Thrust primitives the paper calls.

The CUDA implementation leans on Nvidia's Thrust library for collective
operations — ``thrust::partition``, prefix sums, sorts.  These functions
reproduce the same contracts (including *stable* partitioning, which the
bucketing relies on for determinism) on NumPy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "partition",
    "stable_sort_by_key",
    "reduce_by_key",
    "gather_rows",
]


def exclusive_scan(values: np.ndarray, *, dtype=np.int64) -> np.ndarray:
    """Exclusive prefix sum: ``out[i] = sum(values[:i])``; len + 1 output.

    The extra trailing element (the grand total) matches how Alg. 3 uses
    ``prefixSum`` to derive both positions and the final count.
    """
    values = np.asarray(values)
    out = np.zeros(values.size + 1, dtype=dtype)
    np.cumsum(values, out=out[1:])
    return out


def inclusive_scan(values: np.ndarray, *, dtype=np.int64) -> np.ndarray:
    """Inclusive prefix sum: ``out[i] = sum(values[:i+1])``."""
    return np.cumsum(np.asarray(values), dtype=dtype)


def partition(values: np.ndarray, predicate: np.ndarray) -> tuple[np.ndarray, int]:
    """Stable partition: items satisfying ``predicate`` first, order kept.

    Returns ``(reordered, num_true)`` — the contract of
    ``thrust::partition`` (which the paper uses to extract each degree
    bucket, line 5 of Alg. 1).
    """
    values = np.asarray(values)
    predicate = np.asarray(predicate, dtype=bool)
    if predicate.shape != values.shape:
        raise ValueError("predicate must be parallel to values")
    return np.concatenate([values[predicate], values[~predicate]]), int(predicate.sum())


def stable_sort_by_key(
    keys: np.ndarray, *values: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Stable sort ``keys`` and reorder each values array alongside."""
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    return (keys[order], *[np.asarray(v)[order] for v in values])


def reduce_by_key(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` within runs of equal ``keys`` (keys must be sorted).

    Returns ``(unique_keys, sums)`` — ``thrust::reduce_by_key`` on a
    pre-sorted sequence, the pattern behind the vectorized hash-accumulate.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.size == 0:
        return keys[:0], values[:0]
    boundaries = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[boundaries], np.add.reduceat(values, boundaries)


def gather_rows(
    indptr: np.ndarray, vertices: np.ndarray, lengths: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the CSR rows of ``vertices`` into an edge-index array.

    Returns ``(edge_positions, owner_local)`` where ``edge_positions``
    indexes the graph's ``indices``/``weights`` arrays and
    ``owner_local[e]`` is the position in ``vertices`` owning that edge.
    This is the host-side equivalent of each thread group streaming its
    vertex's neighbour list.

    With ``lengths``, ``indptr`` holds each row's start instead of a row
    pointer: row ``v`` is ``[indptr[v], indptr[v] + lengths[v])``, the
    layout of a graph's row store (:meth:`~repro.graph.csr.CSRGraph.gather`).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = indptr[vertices]
    if lengths is None:
        counts = indptr[vertices + 1] - starts
    else:
        counts = lengths[vertices]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    owner_local = np.repeat(np.arange(vertices.size, dtype=np.int64), counts)
    group_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - group_offsets
    edge_positions = np.repeat(starts, counts) + within
    return edge_positions, owner_local
