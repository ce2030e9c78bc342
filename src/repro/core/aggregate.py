"""Aggregation phase (Algorithm 3): contract communities into vertices.

The four tasks of the paper, each visible in the code below:

(i)   community sizes (``comSize``) and degree sums (``comDegree``) via
      atomic adds — vectorized as ``bincount``, replayed with
      :class:`~repro.gpu.atomics.AtomicArray` in the simulated engine;
(ii)  consecutive renumbering of the non-empty communities (``newID``) by
      a parallel prefix sum over 0/1 flags;
(iii) edge-list layout via prefix sums over the degree-sum upper bound
      (``edgePos``) and the community sizes (``vertexStart``), followed by
      ordering vertices by community (``com``);
(iv)  ``mergeCommunity``: per community, hash all member edges to obtain
      the merged neighbour list, processed in three work buckets (warp /
      shared block / global block) by summed member degree.

Both engines produce the identical contracted graph; the simulated engine
additionally returns kernel statistics for the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.build import from_directed_entries
from ..graph.csr import CSRGraph
from ..gpu.atomics import AtomicArray
from ..gpu.costmodel import CostModel, WorkItem, warp_schedule
from ..gpu.hashtable import CommunityHashTable
from ..gpu.profiler import KernelStats, PhaseProfile
from ..gpu.thrust import exclusive_scan, gather_rows
from ..trace import NullTracer, Tracer, as_tracer
from .buckets import community_buckets
from .config import GPULouvainConfig

__all__ = [
    "AggregationOutcome",
    "LabelContraction",
    "aggregate_gpu",
    "aggregate_bincount",
]

#: Dense-table cap for :func:`aggregate_bincount`: fall back to the
#: hash-based path once ``num_new**2`` exceeds both a multiple of the
#: edge count and this absolute floor (4M int64 slots = 32 MB).
_BINCOUNT_TABLE_FLOOR = 1 << 22


@dataclass
class AggregationOutcome:
    """Result of one aggregation phase."""

    graph: CSRGraph
    dense_map: np.ndarray  # old vertex -> new vertex id
    profile: PhaseProfile = field(default_factory=PhaseProfile)


def _layout(
    graph: CSRGraph, comm: np.ndarray, *, atomic: bool, profile: PhaseProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tasks (i)-(iii): sizes, degree sums, newID, vertex ordering.

    Returns ``(com_size, com_degree, new_id, dense, com)`` where ``com``
    lists vertices grouped by community in ``vertexStart`` order.
    """
    n = graph.num_vertices
    degrees = graph.degrees
    if atomic:
        com_size_arr = AtomicArray(np.zeros(n, dtype=np.int64))
        com_degree_arr = AtomicArray(np.zeros(n, dtype=np.int64))
        com_size_arr.batch_add(comm, np.ones(n, dtype=np.int64))
        com_degree_arr.batch_add(comm, degrees)
        com_size = com_size_arr.values
        com_degree = com_degree_arr.values
        stats = KernelStats(name="contract[sizes]")
        stats.hash_stats.probes = 0
        stats.num_vertices = n
        profile.add(stats)
    else:
        com_size = np.bincount(comm, minlength=n)
        com_degree = np.bincount(comm, weights=degrees, minlength=n).astype(np.int64)

    flags = (com_size > 0).astype(np.int64)
    new_id = exclusive_scan(flags)[:-1]  # newID[c] for non-empty c
    dense = new_id[comm]

    vertex_start = exclusive_scan(com_size)[:-1]
    # Alg. 3 lines 17-19 place vertices via fetch-and-add, which yields an
    # arbitrary order inside each community; we use a stable sort so both
    # engines are deterministic and identical.
    com = np.argsort(comm, kind="stable").astype(np.int64)
    return com_size, com_degree, new_id, dense, com


def _annotate_aggregation(span, graph: CSRGraph, outcome: "AggregationOutcome") -> None:
    """Fill an ``aggregation`` span from a finished contraction."""
    span.count(
        num_vertices_in=graph.num_vertices,
        num_vertices_out=outcome.graph.num_vertices,
        num_edges_out=outcome.graph.num_edges,
        hash_probes=sum(k.hash_stats.probes for k in outcome.profile.kernels),
        allocated_edge_slots=sum(
            k.allocated_edge_slots for k in outcome.profile.kernels
        ),
        used_edge_slots=sum(k.used_edge_slots for k in outcome.profile.kernels),
    )
    issued = sum(k.issued_thread_cycles for k in outcome.profile.kernels)
    if issued > 0:  # simulated engine only; vectorized spans stay unchanged
        span.count(
            active_thread_cycles=sum(
                k.active_thread_cycles for k in outcome.profile.kernels
            ),
            issued_thread_cycles=issued,
        )


def aggregate_gpu(
    graph: CSRGraph,
    comm: np.ndarray,
    config: GPULouvainConfig,
    *,
    cost_model: CostModel | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> AggregationOutcome:
    """Contract ``graph`` by the partition ``comm`` (Alg. 3).

    Returns the contracted graph plus the old-vertex -> new-vertex map.
    With a live ``tracer`` the phase is recorded as an ``aggregation``
    span (``path="bucketed"``) carrying contraction-size and
    hash-probe counters.
    """
    tracer = as_tracer(tracer)
    if not tracer.enabled:
        return _aggregate_gpu(graph, comm, config, cost_model)
    with tracer.span("aggregation", path="bucketed") as span:
        outcome = _aggregate_gpu(graph, comm, config, cost_model)
        _annotate_aggregation(span, graph, outcome)
    return outcome


def _aggregate_gpu(
    graph: CSRGraph,
    comm: np.ndarray,
    config: GPULouvainConfig,
    cost_model: CostModel | None,
) -> AggregationOutcome:
    """:func:`aggregate_gpu` body."""
    comm = np.asarray(comm, dtype=np.int64)
    if comm.shape != (graph.num_vertices,):
        raise ValueError("comm must assign one community per vertex")
    profile = PhaseProfile()
    simulate = config.engine == "simulated"
    if simulate and cost_model is None:
        cost_model = CostModel(config.device, config.cost_parameters)

    n = graph.num_vertices
    if n == 0:
        return AggregationOutcome(graph, np.empty(0, dtype=np.int64), profile)

    com_size, com_degree, new_id, dense, com = _layout(
        graph, comm, atomic=simulate, profile=profile
    )
    present = np.flatnonzero(com_size > 0)
    num_new = int(present.size)
    vertex_start = exclusive_scan(com_size)[:-1]

    buckets = community_buckets(present, com_degree, config.community_bucket_bounds)

    new_u_parts: list[np.ndarray] = []
    new_v_parts: list[np.ndarray] = []
    new_w_parts: list[np.ndarray] = []

    for bucket in buckets:
        cids = bucket.members
        if cids.size == 0:
            continue
        if simulate:
            stats = _merge_bucket_simulated(
                graph,
                dense,
                new_id,
                cids,
                com,
                vertex_start,
                com_size,
                com_degree,
                bucket.index,
                cost_model,
                new_u_parts,
                new_v_parts,
                new_w_parts,
            )
            profile.add(stats)
        else:
            _merge_bucket_vectorized(
                graph,
                dense,
                new_id,
                cids,
                com,
                vertex_start,
                com_size,
                new_u_parts,
                new_v_parts,
                new_w_parts,
            )

    if new_u_parts:
        new_u = np.concatenate(new_u_parts)
        new_v = np.concatenate(new_v_parts)
        new_w = np.concatenate(new_w_parts)
    else:
        new_u = np.empty(0, dtype=np.int64)
        new_v = np.empty(0, dtype=np.int64)
        new_w = np.empty(0, dtype=np.float64)
    contracted = from_directed_entries(new_u, new_v, new_w, num_new)
    return AggregationOutcome(contracted, dense, profile)


def aggregate_bincount(
    graph: CSRGraph,
    comm: np.ndarray,
    config: GPULouvainConfig,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> AggregationOutcome:
    """Contract by partition via one dense ``bincount`` over relabelled keys.

    The streaming fast path: when the contracted graph is small (its
    dense adjacency ``num_new**2`` fits comfortably next to the edge
    list), a single weighted histogram over ``dense[u] * num_new +
    dense[v]`` replaces the community-bucketed sort-and-reduce of
    :func:`aggregate_gpu`.  The contracted *structure* is identical
    (same sorted directed entries); merged weights are the same sums in
    a different association order, hence bit-identical for integral
    weights and equal to float rounding otherwise.  Falls back to
    :func:`aggregate_gpu` when the table would be too large or the
    engine is simulated (the cost model needs the replayed kernels).
    """
    comm = np.asarray(comm, dtype=np.int64)
    if comm.shape != (graph.num_vertices,):
        raise ValueError("comm must assign one community per vertex")
    tracer = as_tracer(tracer)
    n = graph.num_vertices
    if config.engine == "simulated" or n == 0:
        return aggregate_gpu(graph, comm, config, tracer=tracer)

    new_id, num_new = _dense_labels(comm, n)
    dense = new_id[comm]
    table = num_new * num_new
    if num_new == 0 or table > max(4 * graph.num_stored_edges, _BINCOUNT_TABLE_FLOOR):
        return aggregate_gpu(graph, comm, config, tracer=tracer)

    if not tracer.enabled:
        return _bincount_contract(graph, dense, num_new, table)
    with tracer.span("aggregation", path="bincount") as span:
        outcome = _bincount_contract(graph, dense, num_new, table)
        _annotate_aggregation(span, graph, outcome)
        span.count(table_size=table)
    return outcome


def _dense_histogram(
    graph: CSRGraph, dense: np.ndarray, num_new: int, table: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Present ``dense[u] * num_new + dense[v]`` keys with their entry
    counts and weight sums (summed in storage order)."""
    key = dense[graph.vertex_of_edge] * np.int64(num_new) + dense[graph.indices]
    counts = np.bincount(key, minlength=table)
    sums = np.bincount(key, weights=graph.weights, minlength=table)
    present = np.flatnonzero(counts)
    return present, counts[present], sums[present]


def _bincount_contract(
    graph: CSRGraph, dense: np.ndarray, num_new: int, table: int
) -> AggregationOutcome:
    """:func:`aggregate_bincount` dense-histogram core."""
    present, _, sums = _dense_histogram(graph, dense, num_new, table)
    new_u = present // num_new
    new_v = present % num_new
    contracted = from_directed_entries(new_u, new_v, sums, num_new)
    return AggregationOutcome(contracted, dense, PhaseProfile())


def _dense_labels(labels: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """``newID`` of every label (consecutive over the non-empty ones) and
    their count — the renumbering of Alg. 3 task (ii)."""
    com_size = np.bincount(labels, minlength=n)
    new_id = exclusive_scan((com_size > 0).astype(np.int64))[:-1]
    num_new = int(new_id[-1]) + int(com_size[-1] > 0) if n else 0
    return new_id, num_new


@dataclass
class LabelContraction:
    """A graph's contraction by a labelling, keyed by label pairs.

    One entry per label pair ``(a, b)`` that a stored entry ``(u, v)``
    maps to (``a = labels[u]``, ``b = labels[v]``): sorted unique
    ``keys = a * width + b``, the summed ``weights`` and the ``counts``
    of stored entries.  A positive count keeps a zero-weight entry
    present, exactly as the ``counts > 0`` rule of
    :func:`aggregate_bincount` does.

    A stream session carries one across batches (DESIGN.md §8):
    :meth:`add` applies a delta — a batch's changed pairs, or a set of
    movers' rows via :meth:`move` — in time proportional to the delta,
    and :meth:`contract` turns it into the :class:`AggregationOutcome`
    that :func:`aggregate_bincount` would return.  The patched weights
    equal a fresh contraction's only when every partial sum is exact,
    so the session keeps one only under
    :attr:`~repro.graph.csr.CSRGraph.integral_weights`.
    """

    width: int
    keys: np.ndarray
    weights: np.ndarray
    counts: np.ndarray

    @classmethod
    def empty(cls, width: int) -> "LabelContraction":
        """A contraction with no entries."""
        return cls(
            width,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )

    @classmethod
    def of(cls, graph: CSRGraph, labels: np.ndarray) -> "LabelContraction":
        """Contract ``graph`` by ``labels`` afresh: one O(E) pass."""
        n = graph.num_vertices
        new_id, num_new = _dense_labels(labels, n)
        table = num_new * num_new
        if table <= max(4 * graph.num_stored_edges, _BINCOUNT_TABLE_FLOOR):
            present, counts, weights = _dense_histogram(
                graph, new_id[labels], num_new, table
            )
            label_of = np.flatnonzero(np.bincount(labels, minlength=n))
            keys = label_of[present // num_new] * n + label_of[present % num_new]
            # A weighted bincount of no entries comes back int64; later
            # patches add float weights in place.
            return cls(n, keys, weights.astype(np.float64, copy=False), counts)
        out = cls.empty(n)
        key = labels[graph.vertex_of_edge] * np.int64(n) + labels[graph.indices]
        out.add(key, graph.weights, np.ones(key.size, dtype=np.int64))
        return out

    def add(self, keys: np.ndarray, weights: np.ndarray, counts: np.ndarray) -> None:
        """Add per-entry weight and count deltas; keys may repeat or be new."""
        keys, inverse = np.unique(keys, return_inverse=True)
        weights = np.bincount(inverse, weights=weights, minlength=keys.size)
        counts = np.bincount(inverse, weights=counts, minlength=keys.size).astype(
            np.int64
        )
        pos = np.searchsorted(self.keys, keys)
        hit = pos < self.keys.size
        hit[hit] = self.keys[pos[hit]] == keys[hit]
        self.weights[pos[hit]] += weights[hit]
        self.counts[pos[hit]] += counts[hit]
        new = ~hit
        if new.any():
            at = pos[new]
            self.keys = np.insert(self.keys, at, keys[new])
            self.weights = np.insert(self.weights, at, weights[new])
            self.counts = np.insert(self.counts, at, counts[new])

    def add_pairs(
        self,
        labels: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        weight_change: np.ndarray,
        count_change: np.ndarray,
    ) -> None:
        """Patch by changed undirected pairs ``(u[i], v[i])``.

        ``weight_change`` and ``count_change`` apply to each stored
        direction of a pair (a self-loop is stored once).
        """
        nl = u != v
        a = labels[u]
        b = labels[v]
        self.add(
            np.concatenate((a * self.width + b, (b * self.width + a)[nl])),
            np.concatenate((weight_change, weight_change[nl])),
            np.concatenate((count_change, count_change[nl])),
        )

    def move(
        self,
        graph: CSRGraph,
        before: np.ndarray,
        after: np.ndarray,
        movers: np.ndarray,
    ) -> None:
        """Re-key the movers' entries from labels ``before`` to ``after``.

        Touches each mover's row plus the reverse direction of every
        entry whose other end did not move (a mover-mover entry is in
        both rows already): O(movers' rows).
        """
        pos, which = graph.gather(movers)
        s = movers[which]
        d = graph.row_indices[pos]
        w = graph.row_weights[pos]
        moved = np.zeros(graph.num_vertices, dtype=bool)
        moved[movers] = True
        rev = ~moved[d]
        s_rev = s[rev]
        d_rev = d[rev]
        w_rev = w[rev]
        width = self.width
        keys = np.concatenate(
            (
                before[s] * width + before[d],
                before[d_rev] * width + before[s_rev],
                after[s] * width + after[d],
                after[d_rev] * width + after[s_rev],
            )
        )
        half = s.size + s_rev.size
        self.add(
            keys,
            np.concatenate((-w, -w_rev, w, w_rev)),
            np.concatenate(
                (np.full(half, -1, dtype=np.int64), np.ones(half, dtype=np.int64))
            ),
        )

    def relabel(self, mapping: np.ndarray) -> "LabelContraction":
        """The same contraction keyed by ``mapping[label]`` (colliding
        entries merge; entries with no stored edge left are dropped)."""
        live = self.counts > 0
        keys = self.keys[live]
        out = LabelContraction.empty(self.width)
        out.add(
            mapping[keys // self.width] * self.width + mapping[keys % self.width],
            self.weights[live],
            self.counts[live],
        )
        return out

    def internal_weight(self) -> float:
        """Total weight of the entries inside one label (``a == b``)."""
        diagonal = self.keys // self.width == self.keys % self.width
        return float(self.weights[diagonal].sum())

    def contract(
        self,
        graph: CSRGraph,
        labels: np.ndarray,
        *,
        tracer: Tracer | NullTracer | None = None,
    ) -> AggregationOutcome:
        """What :func:`aggregate_bincount` returns for ``(graph, labels)``.

        ``labels`` must be the labelling this contraction is keyed by.
        Costs O(n + entries) — no edge of ``graph`` is read.  With a
        live ``tracer`` it is recorded as an ``aggregation`` span with
        ``path="carried"``.
        """
        tracer = as_tracer(tracer)
        if not tracer.enabled:
            return self._contract(graph, labels)
        with tracer.span("aggregation", path="carried") as span:
            outcome = self._contract(graph, labels)
            _annotate_aggregation(span, graph, outcome)
        return outcome

    def _contract(self, graph: CSRGraph, labels: np.ndarray) -> AggregationOutcome:
        """:meth:`contract` body."""
        new_id, num_new = _dense_labels(labels, graph.num_vertices)
        live = self.counts > 0
        keys = self.keys[live]
        # Keys are sorted by (a, b) and newID is increasing, so the
        # entries are already in CSR order.
        new_u = new_id[keys // self.width]
        indptr = np.zeros(num_new + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_u, minlength=num_new), out=indptr[1:])
        contracted = CSRGraph(
            indptr=indptr,
            indices=new_id[keys % self.width],
            weights=self.weights[live],
        )
        return AggregationOutcome(contracted, new_id[labels], PhaseProfile())


def _members_of(
    cids: np.ndarray,
    com: np.ndarray,
    vertex_start: np.ndarray,
    com_size: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Member vertices of each community in ``cids`` (flattened).

    Returns ``(members, owner_local)`` where ``owner_local`` maps each
    member to its community's position in ``cids``.
    """
    counts = com_size[cids]
    total = int(counts.sum())
    owner_local = np.repeat(np.arange(cids.size, dtype=np.int64), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - offsets
    members = com[np.repeat(vertex_start[cids], counts) + within]
    return members, owner_local


def _merge_bucket_vectorized(
    graph: CSRGraph,
    dense: np.ndarray,
    new_id: np.ndarray,
    cids: np.ndarray,
    com: np.ndarray,
    vertex_start: np.ndarray,
    com_size: np.ndarray,
    out_u: list[np.ndarray],
    out_v: list[np.ndarray],
    out_w: list[np.ndarray],
) -> None:
    """mergeCommunity for one work bucket, as sort + segmented reduction."""
    members, owner_local = _members_of(cids, com, vertex_start, com_size)
    edge_pos, member_local = gather_rows(graph.indptr, members)
    if edge_pos.size == 0:
        return
    src_new = new_id[cids][owner_local[member_local]]
    dst_new = dense[graph.indices[edge_pos]]
    w = graph.weights[edge_pos]
    num_new = int(dense.max()) + 1 if dense.size else 1
    order = np.argsort(src_new * np.int64(num_new) + dst_new, kind="stable")
    src_new = src_new[order]
    dst_new = dst_new[order]
    w = w[order]
    boundary = np.flatnonzero(
        np.concatenate(
            ([True], (src_new[1:] != src_new[:-1]) | (dst_new[1:] != dst_new[:-1]))
        )
    )
    out_u.append(src_new[boundary])
    out_v.append(dst_new[boundary])
    out_w.append(np.add.reduceat(w, boundary))


def _merge_bucket_simulated(
    graph: CSRGraph,
    dense: np.ndarray,
    new_id: np.ndarray,
    cids: np.ndarray,
    com: np.ndarray,
    vertex_start: np.ndarray,
    com_size: np.ndarray,
    com_degree: np.ndarray,
    bucket_index: int,
    cost_model: CostModel,
    out_u: list[np.ndarray],
    out_v: list[np.ndarray],
    out_w: list[np.ndarray],
) -> KernelStats:
    """mergeCommunity replayed with real hash tables, one community at a time.

    Work-bucket placement (Section 4.1): bucket 0 -> one warp per
    community, shared-memory table; bucket 1 -> one block, shared table;
    bucket 2 -> one block, global-memory table.
    """
    device = cost_model.device
    stats = KernelStats(name=f"mergeCommunity[bucket {bucket_index}]")
    shared = bucket_index < 2
    group = device.warp_size if bucket_index == 0 else device.threads_per_block
    community_cycles = np.zeros(cids.size, dtype=np.float64)

    for idx, c in enumerate(cids.tolist()):
        start = int(vertex_start[c])
        size = int(com_size[c])
        members = com[start : start + size]
        table = CommunityHashTable(max(int(com_degree[c]), 1))
        new_src = int(new_id[c])
        edges = 0
        for v in members.tolist():
            for nb, wt in zip(
                graph.neighbors(v).tolist(), graph.neighbor_weights(v).tolist()
            ):
                table.add(int(dense[nb]), float(wt))
                edges += 1
        entries = sorted(table.items())
        if entries:
            out_u.append(np.array([new_src] * len(entries), dtype=np.int64))
            out_v.append(np.array([e[0] for e in entries], dtype=np.int64))
            out_w.append(np.array([e[1] for e in entries], dtype=np.float64))
        # Alg. 3 allocates each community's new edge list at the sum of
        # member degrees (upper bound); the merged list is usually smaller.
        stats.allocated_edge_slots += int(com_degree[c])
        stats.used_edge_slots += len(entries)
        work = WorkItem(
            edges=edges,
            probes=table.stats.probes,
            atomics=table.stats.inserts
            + table.stats.accumulates
            + table.stats.cas_attempts,
        )
        community_cycles[idx] = cost_model.vertex_cycles(work, group, shared=shared)
        stats.active_thread_cycles += cost_model.active_cycles(work, shared=shared)
        stats.hash_stats.merge(table.stats)
        table_bytes = table.size * 12
        if shared:
            stats.shared_bytes += table_bytes
        else:
            stats.global_bytes += table_bytes
        stats.num_edges += edges

    if group <= device.warp_size:
        warp_cycles, num_warps = warp_schedule(community_cycles, 1)
    else:
        warps_per_block = group // device.warp_size
        warp_cycles = float(community_cycles.sum()) * warps_per_block
        num_warps = cids.size * warps_per_block
    stats.warp_cycles += warp_cycles
    stats.issued_thread_cycles += warp_cycles * device.warp_size
    stats.num_warps += num_warps
    stats.num_vertices += int(cids.size)
    return stats
