"""``computeMove`` (Algorithm 2): best-community selection per vertex.

Two interchangeable engines implement identical *semantics*:

* :func:`compute_moves_vectorized` — the NumPy data-parallel engine.  The
  per-vertex hash accumulation of ``e_{i->c}`` is replaced by a sort +
  segmented reduction over the bucket's edges, which computes exactly the
  same sums; scoring, the strict positive-gain rule, lowest-id tie-breaks
  and the singleton constraint follow the paper.
* :func:`compute_moves_simulated` — a thread-level replay using the real
  open-addressing hash tables of :mod:`repro.gpu.hashtable`, charging
  probes/atomics/divergence to the cost model and returning
  :class:`~repro.gpu.profiler.KernelStats`.

Both return, for each requested vertex, the community it should join —
``newComm`` of Alg. 1 line 7 — decided from the *current* snapshot (the
per-bucket synchronous model of the paper).

Scoring recap (Eq. 2, with the constant ``e_{i->C(i)\\{i}} / m`` term kept
so the move test is the full positive-gain rule):

* ``score(c) = e_{i->c} / m - k_i * a_c^{(-i)} / (2 m^2)`` where
  ``a_c^{(-i)}`` excludes ``i``'s own degree when ``c == C(i)``;
* move to ``argmax_c score(c)`` over neighbouring communities iff it
  strictly beats ``score(C(i))``; ties break to the lowest community id.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpu.costmodel import CostModel, WorkItem, warp_schedule
from ..gpu.hashtable import CommunityHashTable
from ..gpu.profiler import KernelStats
from .buckets import Bucket
from .sweep_plan import BucketPlan

__all__ = [
    "segment_sort_order",
    "compute_moves_vectorized",
    "compute_moves_simulated",
]

#: Largest combined sort key before the lexsort fallback kicks in
#: (module-level so tests can shrink it to exercise the fallback).
_MAX_RADIX_KEY = np.iinfo(np.int64).max


def _mark_scored(plan: BucketPlan) -> None:
    """Record that the bucket's decisions are current as of this commit.

    Only ever *skipping* the stamp is safe (it forces extra rescoring);
    the stamp itself must follow a scoring pass that covered every
    vertex whose inputs changed.
    """
    owner = plan.owner
    if owner is not None and owner.track_validity:
        plan.score_stamp = owner.move_counter
        plan.score_moved = owner.total_moved
        plan.rescore_local = None


def segment_sort_order(
    owner_local: np.ndarray,
    dst_comm: np.ndarray,
    num_vertices: int,
    *,
    owner_key: np.ndarray | None = None,
) -> np.ndarray:
    """Stable order of edges by ``(owner_local, dst_comm)``.

    A combined integer key + stable argsort is ~50x faster than
    np.lexsort on these sizes (profiled; see the optimization guide's
    "measure first" workflow).  NumPy's stable sort is a radix sort only
    for keys of 16 bits or less; these int32/int64 keys get timsort,
    which gains from the sorted runs the CSR edge order leaves.  The
    combined key ``owner_local * num_vertices + dst_comm`` can overflow
    int64 when the bucket size times the vertex count exceeds 2^63
    (large ``n x bucket`` products); the overflow condition is checked in
    exact Python integers and the order falls back to ``np.lexsort`` —
    also stable, so every path produces the identical permutation.

    ``owner_key`` optionally supplies the pre-multiplied
    ``owner_local * num_vertices`` base from a
    :class:`~repro.core.sweep_plan.BucketPlan` (already overflow-checked
    at plan-build time); when it is int32 the sort moves half the bytes.
    Plan-less callers (``parallel/chunked``) pass no ``owner_key`` and
    get the int64 key built here.
    """
    if owner_local.size == 0:
        return np.empty(0, dtype=np.int64)
    if owner_key is not None:
        if owner_key.dtype == np.int32:
            return np.argsort(owner_key + dst_comm.astype(np.int32), kind="stable")
        return np.argsort(owner_key + dst_comm, kind="stable")
    # owner_local from gather_rows is nondecreasing, but take the true max
    # so the helper is safe on arbitrary inputs.
    max_key = int(owner_local.max()) * int(num_vertices) + int(num_vertices) - 1
    if max_key > _MAX_RADIX_KEY:
        return np.lexsort((dst_comm, owner_local))
    return np.argsort(
        owner_local * np.int64(num_vertices) + dst_comm, kind="stable"
    )


def compute_moves_vectorized(
    graph: CSRGraph,
    comm: np.ndarray,
    volumes: np.ndarray,
    comm_sizes: np.ndarray,
    vertices: np.ndarray,
    *,
    k: np.ndarray | None = None,
    singleton_constraint: bool = True,
    resolution: float = 1.0,
    plan: BucketPlan | None = None,
) -> np.ndarray:
    """Vectorized Alg. 2 for a set of vertices; returns their new community.

    Parameters
    ----------
    comm, volumes, comm_sizes:
        Current community of every vertex, ``a_c`` per community label and
        community sizes (labels index all three).
    vertices:
        The bucket's members (any subset of vertices).
    k:
        Weighted degrees (recomputed if omitted).
    plan:
        Optional pre-gathered edge arrays for exactly these ``vertices``
        (a :class:`~repro.core.sweep_plan.BucketPlan`); skips the
        per-sweep row gather and self-loop filtering.  The result is
        bit-identical with and without a plan.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    n = graph.num_vertices
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64)
    if k is None:
        k = graph.weighted_degrees
    m = graph.m
    own = comm[vertices]
    new_comm = own.copy()
    if m == 0.0:
        return new_comm

    if plan is not None and plan.bucket.members.size != vertices.size:
        raise ValueError("plan does not match the requested vertex set")

    if plan is not None and not plan.pairs_valid:
        # Try an in-place patch of the cached pair table (exact for
        # integral weights; falls through to a rebuild for big deltas).
        plan.refresh_pairs(comm)

    if plan is not None and plan.pairs_valid:
        # Pair-cache hit: no destination vertex of this bucket changed
        # community since the pairs were built (or a patch restored
        # exactness), so the sorted (vertex, community) -> e_{i->c}
        # structure is exact.  Only the scoring below (volumes, sizes,
        # own labels) is re-evaluated.
        pv = plan.pv
        pc = plan.pc
        pe = plan.pe
        group_start = plan.group_start
        group_vertex = plan.group_vertex
        seg_lengths = plan.seg_lengths
        kv = plan.kv
        sweep_plan = plan.owner
        if (
            plan.score_stamp >= 0
            and sweep_plan is not None
            and sweep_plan.track_validity
            and pv.size
            # Cheap density gate: each move dirties two communities, so
            # once the moves since this bucket's last scoring rival its
            # vertex count the dirty mask is near-certain to select
            # almost everyone — skip the mask-building passes outright.
            and (sweep_plan.total_moved - plan.score_moved) * 8
            < vertices.size
        ):
            # Delta scoring: a vertex whose own community, candidate
            # communities and e_{i->c} rows are all untouched since it
            # was last scored faces bit-identical gain inputs, so it
            # reproduces its previous decision — and every proposed move
            # is committed, so that decision was "stay".  Rescore only
            # vertices that (a) moved, (b) sit in a community whose
            # volume/size changed, (c) have a candidate community that
            # changed, or (d) had pair rows patched.
            stamp = plan.score_stamp
            need_vertex = sweep_plan.move_stamp[vertices] > stamp
            need_vertex |= sweep_plan.comm_stamp[own] > stamp
            if plan.rescore_local is not None and plan.rescore_local.size:
                need_vertex[plan.rescore_local] = True
            pair_dirty = sweep_plan.comm_stamp[pc] > stamp
            need_group = need_vertex[group_vertex] | np.logical_or.reduceat(
                pair_dirty, group_start
            )
            num_needed = int(np.count_nonzero(need_group))
            if num_needed == 0:
                _mark_scored(plan)
                return new_comm
            if num_needed * 8 < need_group.size * 7:
                # Compress to the dirty segments; scoring the subset is
                # elementwise/segmentwise identical to scoring it inside
                # the full arrays.
                pair_mask = np.repeat(need_group, seg_lengths)
                pv = pv[pair_mask]
                pc = pc[pair_mask]
                pe = pe[pair_mask]
                seg_lengths = seg_lengths[need_group]
                group_vertex = group_vertex[need_group]
                group_start = np.zeros(seg_lengths.size, dtype=np.int64)
                np.cumsum(seg_lengths[:-1], out=group_start[1:])
    elif plan is not None and plan.owner_key is not None:
        # Plan rebuild on the combined-key fast path: the sorted key
        # values themselves encode (owner_local, dst_comm), so the pair
        # boundaries and labels come straight from the sorted key with no
        # extra per-edge gathers.
        if plan.owner_local.size == 0:
            return new_comm
        owner_key = plan.owner_key
        if owner_key.dtype == np.int32:
            # comm32 is the int32 mirror of comm the commit keeps in sync;
            # gathering it directly skips a full-width astype pass.
            comm32 = plan.comm32 if plan.comm32 is not None else comm
            dc = comm32[plan.dst].astype(np.int32, copy=False)
        else:
            dc = comm[plan.dst]
        key = owner_key + dc
        if plan.can_increment:
            # Snapshot of the dst labels the table is built from — what
            # refresh_pairs diffs against on later sweeps.
            plan.dst_comm_snap = dc
        # Stable timsort: the keys keep long sorted runs (CSR edge order
        # plus the untouched majority of destinations), which the
        # adaptive stable sort exploits; an unstable introsort measured
        # slower here for exactly that reason.  With integral weights
        # (can_increment) the reduced sums are order-independent, so the
        # previous rebuild's permutation is a legal starting order — and
        # since only the moved destinations' keys left their slots, the
        # pre-permuted key array is near-sorted and timsort flies.
        hint = plan.sort_hint if plan.can_increment else None
        if hint is not None:
            order = hint[np.argsort(key[hint], kind="stable")]
        else:
            order = np.argsort(key, kind="stable")
        if plan.can_increment:
            plan.sort_hint = order
        key = key[order]
        # Boundary detection without materialising an edge-sized concat:
        # flatnonzero on the pairwise diff, then prepend position 0.
        starts = np.empty(0, dtype=np.int64)
        if key.size:
            inner = np.flatnonzero(key[1:] != key[:-1])
            starts = np.empty(inner.size + 1, dtype=np.int64)
            starts[0] = 0
            np.add(inner, 1, out=starts[1:])
        key_start = key[starts]
        pv = key_start // n  # local vertex index per pair
        pc = key_start - pv * n  # community per pair
        # Upcast once: scoring fancy-indexes through pv/pc every sweep,
        # and int32 index arrays cost NumPy an intp re-cast per gather.
        pv = pv.astype(np.int64, copy=False)
        pc = pc.astype(np.int64, copy=False)
        if plan.unit_weights:
            # All weights are 1.0, so e_{i->c} is the run length of each
            # key — an exact integer, bit-identical to the float64
            # reduction, without gathering/reducing the weight array.
            pe = np.diff(np.append(starts, key.size)).astype(np.float64)
        else:
            w = plan.weights[order]
            pe = np.add.reduceat(w, starts)  # e_{i->c} per pair
        kv = plan.kv

        group_start = np.flatnonzero(np.concatenate(([True], pv[1:] != pv[:-1])))
        group_vertex = pv[group_start]
        seg_lengths = np.diff(np.append(group_start, pv.size))
        plan.store_pairs(
            pv, pc, pe, group_start, group_vertex, seg_lengths, pk=key_start
        )
    else:
        if plan is not None:
            owner_local = plan.owner_local
            dst_comm = comm[plan.dst]
            w = plan.weights
            owner_key = plan.owner_key
            kv = plan.kv
        else:
            edge_pos, owner_local = graph.gather(vertices)
            dst = graph.row_indices[edge_pos]
            w = graph.row_weights[edge_pos]
            not_loop = dst != vertices[owner_local]
            owner_local = owner_local[not_loop]
            dst_comm = comm[dst[not_loop]]
            w = w[not_loop]
            owner_key = None
            kv = k[vertices]
        if owner_local.size == 0:
            return new_comm

        # Segmented "hash accumulate": e_{i->c} per (vertex, community)
        # pair.
        order = segment_sort_order(owner_local, dst_comm, n, owner_key=owner_key)
        owner_local = owner_local[order]
        dst_comm = dst_comm[order]
        w = w[order]
        is_boundary = np.concatenate(
            (
                [True],
                (owner_local[1:] != owner_local[:-1])
                | (dst_comm[1:] != dst_comm[:-1]),
            )
        )
        starts = np.flatnonzero(is_boundary)
        pv = owner_local[starts]  # local vertex index per pair
        pc = dst_comm[starts]  # community per pair
        pe = np.add.reduceat(w, starts)  # e_{i->c} per pair

        # Per-vertex pair segments (for the argmax reductions below).
        group_start = np.flatnonzero(np.concatenate(([True], pv[1:] != pv[:-1])))
        group_vertex = pv[group_start]
        seg_lengths = np.diff(np.append(group_start, pv.size))
        if plan is not None:
            plan.store_pairs(pv, pc, pe, group_start, group_vertex, seg_lengths)
    if pv.size == 0:
        return new_comm

    # Per-local-vertex quantities.
    e_own = np.zeros(vertices.size, dtype=np.float64)
    own_p = own[pv]
    own_pair = pc == own_p
    e_own[pv[own_pair]] = pe[own_pair]
    a_own_excl = volumes[own] - kv

    two_m_sq = 2.0 * m * m
    # Gain of moving local vertex pv to pc (candidates only).
    gain = (pe - e_own[pv]) / m + resolution * kv[pv] * (
        a_own_excl[pv] - volumes[pc]
    ) / two_m_sq
    valid = ~own_pair
    if singleton_constraint:
        i_singleton = comm_sizes[own_p] == 1
        target_singleton = comm_sizes[pc] == 1
        blocked = i_singleton & target_singleton & (pc > own_p)
        valid &= ~blocked
    gain = np.where(valid, gain, -np.inf)

    # Per-vertex argmax with lowest-community-id tie-break.
    max_gain = np.maximum.reduceat(gain, group_start)
    max_gain_per_pair = np.repeat(max_gain, seg_lengths)
    tie_candidate = np.where(gain == max_gain_per_pair, pc, n)
    best_c = np.minimum.reduceat(tie_candidate, group_start)

    moves = max_gain > 0.0
    new_comm[group_vertex[moves]] = best_c[moves]
    if plan is not None:
        _mark_scored(plan)
    return new_comm


def compute_moves_simulated(
    graph: CSRGraph,
    comm: np.ndarray,
    volumes: np.ndarray,
    comm_sizes: np.ndarray,
    bucket: Bucket,
    cost_model: CostModel,
    *,
    k: np.ndarray | None = None,
    singleton_constraint: bool = True,
    resolution: float = 1.0,
) -> tuple[np.ndarray, KernelStats]:
    """Thread-level Alg. 2 replay for one degree bucket.

    Hashes every neighbour (self-loops into the own community, as the CUDA
    kernel does), selects the best move with the same rules as the
    vectorized engine, and charges the cost model for the group-size /
    memory-space configuration of ``bucket``:

    * buckets with ``group_size < warp`` pack ``warp/group`` vertices per
      warp (divergence = max over the packed groups);
    * the last bucket (and only it) keeps its hash table in global memory
      and is charged global-latency probes/atomics — the shared/global
      distinction of Section 4.1.
    """
    vertices = bucket.members
    device = cost_model.device
    stats = KernelStats(name=f"computeMove[bucket {bucket.index}]")
    new_comm = comm[vertices].copy() if vertices.size else np.empty(0, dtype=np.int64)
    if vertices.size == 0:
        return new_comm, stats
    if k is None:
        k = graph.weighted_degrees
    m = graph.m
    shared = bucket.upper != -1  # unbounded (last) bucket -> global memory
    group = max(1, bucket.group_size)

    vertex_cycles = np.zeros(vertices.size, dtype=np.float64)
    table_sizes = np.zeros(vertices.size, dtype=np.float64)
    for idx, v in enumerate(vertices.tolist()):
        own = int(comm[v])
        neighbours = graph.neighbors(v)
        wts = graph.neighbor_weights(v)
        deg = int(neighbours.size)
        table = CommunityHashTable(deg)
        loop_weight = 0.0
        for nb, wt in zip(neighbours.tolist(), wts.tolist()):
            if nb == v:
                table.add(own, wt)
                loop_weight += wt
            else:
                table.add(int(comm[nb]), wt)

        kv = float(k[v])
        a_own_excl = float(volumes[own]) - kv
        e_own = table.get(own) - loop_weight
        two_m_sq = 2.0 * m * m
        best_c = own
        best_gain = 0.0
        for c, e_vc in sorted(table.items()):
            if c == own:
                continue
            if (
                singleton_constraint
                and comm_sizes[own] == 1
                and comm_sizes[c] == 1
                and c > own
            ):
                continue
            # Same expression (and evaluation order) as the vectorized
            # engine, so both compute bitwise-identical gains.
            gain = (e_vc - e_own) / m + resolution * kv * (
                a_own_excl - float(volumes[c])
            ) / two_m_sq
            if gain > best_gain:
                best_gain = gain
                best_c = c
        new_comm[idx] = best_c

        work = WorkItem(
            edges=deg,
            probes=table.stats.probes,
            atomics=table.stats.inserts
            + table.stats.accumulates
            + table.stats.cas_attempts,
        )
        vertex_cycles[idx] = cost_model.vertex_cycles(work, group, shared=shared)
        stats.active_thread_cycles += cost_model.active_cycles(work, shared=shared)
        stats.hash_stats.merge(table.stats)
        table_bytes = table.size * 12
        if shared:
            stats.shared_bytes += table_bytes
        else:
            table_sizes[idx] = table_bytes
        stats.num_edges += deg

    if group <= device.warp_size:
        groups_per_warp = device.warp_size // group
        warp_cycles, num_warps = warp_schedule(vertex_cycles, groups_per_warp)
    elif shared:
        # Block-wide processing (bucket 6): one vertex per 128-thread
        # block; the block's warps all run for the vertex's duration.
        warps_per_block = group // device.warp_size
        warp_cycles = float(vertex_cycles.sum()) * warps_per_block
        num_warps = vertices.size * warps_per_block
    else:
        # Bucket 7 (Section 4.1): global-memory tables are a fixed
        # allocation, so several vertices share a block and are processed
        # sequentially, re-using the table.  "To ensure a good load
        # balance ... vertices in group seven are initially sorted by
        # degree before the vertices are assigned to thread blocks in an
        # interleaved fashion."
        warps_per_block = group // device.warp_size
        concurrent_blocks = max(1, min(vertices.size, device.num_sms * 4))
        order = np.argsort(-graph.degrees[vertices], kind="stable")
        block_cycles = np.zeros(concurrent_blocks, dtype=np.float64)
        block_table = np.zeros(concurrent_blocks, dtype=np.float64)
        for position, vertex_idx in enumerate(order.tolist()):
            block = position % concurrent_blocks
            block_cycles[block] += vertex_cycles[vertex_idx]
            block_table[block] = max(block_table[block], table_sizes[vertex_idx])
        # Blocks run concurrently; each occupies its warps for its total.
        warp_cycles = float(block_cycles.sum()) * warps_per_block
        num_warps = concurrent_blocks * warps_per_block
        stats.global_bytes += int(block_table.sum())  # reused allocations
    stats.warp_cycles += warp_cycles
    stats.issued_thread_cycles += warp_cycles * device.warp_size
    stats.num_warps += num_warps
    stats.num_vertices += int(vertices.size)
    return new_comm, stats
