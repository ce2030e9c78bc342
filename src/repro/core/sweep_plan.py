"""Sweep-plan caching for the vectorized modularity-optimization phase.

Within one level the graph topology is frozen: the degree buckets, each
bucket's CSR row gather, the self-loop mask, and the edge weights never
change between sweeps — only the community labels do.  The CUDA code pays
for the row gather implicitly (threads stream their vertex's neighbour
list from the fixed CSR arrays every launch), but the NumPy engine was
rebuilding the gathered ``owner_local``/``dst``/``w`` arrays from scratch
on every sweep, an O(E) fancy-indexing tax per sweep that the hardware
never charges.

A :class:`SweepPlan` hoists that work out of the sweep loop at two
levels:

1. **Edge gathers** (:class:`BucketPlan`): built once per phase, served
   to :func:`~repro.core.compute_move.compute_moves_vectorized` on every
   sweep.  The combined sort key base ``owner_local * n`` is pre-multiplied
   (int32 when it fits, else int64; ``None`` selects the lexsort
   overflow fallback in
   :func:`~repro.core.compute_move.segment_sort_order`).
2. **Pair structures**: the sorted ``(vertex, community) -> e_{i->c}``
   accumulation — the sort plus segmented reduction that dominates a
   sweep — depends on ``comm`` only through the labels of the bucket's
   destination vertices.  Each bucket caches its pair arrays and reuses
   them until some destination vertex changes community: the
   modularity-optimization loop stamps every batch of committed movers
   via :meth:`SweepPlan.mark_moved`, and :meth:`SweepPlan.for_bucket`
   validates a bucket's cache by comparing the stamps of its unique
   destination vertices against the build stamp.  Scoring (volumes,
   sizes, own labels) is always evaluated fresh, so reused pairs produce
   bit-identical moves.  The cached pairs also power the incremental
   modularity commit: the internal-weight delta of a batch of moves is
   assembled from the movers' cached ``e_{i->c}`` rows plus a
   mover-mover correction, instead of re-gathering the movers' CSR rows.

Two further shortcuts apply only when every edge weight is integral
(integer-valued float64 sums below 2^53 are order-independent, so any
summation order is bit-identical):

3. **Pair patching** (:meth:`BucketPlan.refresh_pairs`): when few
   destinations moved since the build, the cached pair table is patched
   in place from exactly those destinations' edges (``-w`` to the old
   pair, ``+w`` to the new) instead of re-sorted.
4. **Delta scoring**: a vertex whose own community, candidate
   communities and ``e_{i->c}`` rows are all untouched since its last
   scoring faces bit-identical gain inputs and reproduces its previous
   "stay" decision (every proposed move is committed), so scoring can
   skip it.  :meth:`SweepPlan.mark_moved` stamps movers *and* their
   old/new communities; per-bucket ``score_stamp`` bookkeeping in
   :class:`BucketPlan` decides who must be rescored.

``gather_reuse_hits`` / ``pair_reuse_hits`` / ``pair_patch_hits`` count
how often each cache level was served instead of rebuilt — the
quantities the per-sweep observability in
:class:`~repro.metrics.timing.SweepStats` reports.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..gpu.thrust import gather_rows
from ..graph.csr import CSRGraph
from .buckets import Bucket

__all__ = ["BucketPlan", "SweepPlan"]

_INT64_MAX = np.iinfo(np.int64).max
_INT32_MAX = int(np.iinfo(np.int32).max)

#: A patch is accepted only while the affected edges are below
#: ``1/_PATCH_EDGE_FACTOR`` of the bucket's edge list; past that, the
#: stable rebuild (adaptive timsort over mostly-sorted keys) is cheaper.
_PATCH_EDGE_FACTOR = 8

#: Movers since a bucket's pair build beyond ``1/_SCAN_FUTILITY_FACTOR``
#: of its edge count make a reuse or small patch hopeless; the stamp
#: validation scan is skipped outright and the bucket rebuilds.
_SCAN_FUTILITY_FACTOR = 8


@dataclass
class BucketPlan:
    """Loop-invariant edge gather (and pair cache) of one degree bucket.

    The edge arrays are parallel and already exclude self-loops (a
    self-loop never changes ``e_{i->c}`` relative to staying, exactly as
    the vectorized engine filtered them per sweep).

    Attributes
    ----------
    bucket:
        The bucket this plan serves (members in stable partition order).
    owner_local:
        Per edge, the owning vertex's position in ``bucket.members``
        (nondecreasing, as produced by :func:`gather_rows`).
    dst:
        Per edge, the global destination vertex id.
    weights:
        Per edge, the edge weight.
    owner_key:
        ``owner_local * num_vertices`` pre-multiplied for the combined
        sort key (int32 when the combined key fits, else int64),
        or ``None`` when it could overflow int64 and the lexsort
        fallback must be used.
    kv:
        Weighted degrees of ``bucket.members`` (loop-invariant).
    num_gathered_edges:
        Row-gather size including self-loops (what a fresh gather would
        have touched; used for accounting).
    dst_unique:
        Sorted unique destination vertices of the bucket's edges; the
        pull-based cache validation in :meth:`refresh_pairs` checks
        their move stamps (much smaller than the edge list).
    edge_indptr:
        CSR-style index from local vertex to its segment of the plan's
        edge arrays (``owner_local`` is nondecreasing).
    dst_counts:
        Edge count per entry of ``dst_unique`` — sizes the affected-edge
        estimate in :meth:`refresh_pairs` without touching the edge
        list.
    dst_edge_order / dst_edge_indptr:
        dst-CSR of the plan's edge arrays (edge ids grouped by
        destination, segments parallel to ``dst_unique``); maps a batch
        of moved destinations to the affected edges in
        :meth:`refresh_pairs`.  Built lazily by the first patch that
        passes the size cutoff (an O(E log E) sort that buckets which
        never patch should not pay).
    dst_comm_snap:
        Per edge, the destination's community label the cached pair
        table was built from — what :meth:`refresh_pairs` diffs against.
    can_increment:
        Whether in-place pair patching is sound for this bucket
        (integral edge weights and a combined key that fits int64).
    unit_weights:
        Whether every edge weight of this bucket equals ``1.0``; the
        pair rebuild then reads ``e_{i->c}`` straight off the segment
        lengths (an exact integer count, bit-identical to the float64
        reduction) instead of gathering and reducing the weights.
    comm32:
        Shared int32 mirror of the community labels (set by
        :meth:`SweepPlan.bind_communities`, ``None`` when labels exceed
        int32 or no mirror is maintained); lets the combined-key rebuild
        gather half-width labels without an astype pass.
    pairs_valid / pk / pv / pc / pe / group_start / group_vertex /
    seg_lengths:
        Cached sorted pair structure: combined sort key, local vertex,
        destination community, and ``e_{i->c}`` per (vertex, community)
        pair, plus the per-vertex segment boundaries of the pair array.
        Only valid while no destination vertex of this bucket changes
        community (or after :meth:`refresh_pairs` patched it back to
        exactness).
    built_stamp / pending_stamp:
        Move-stamp bookkeeping for pull-based validation (see
        :meth:`refresh_pairs`).
    score_stamp / rescore_local:
        Delta-scoring bookkeeping: the move counter at which this
        bucket's vertices were last (fully or validly) scored, and the
        local vertex ids whose cached ``e_{i->c}`` rows a patch changed
        since then.  A vertex whose own community, candidate
        communities and pair rows are all untouched since
        ``score_stamp`` would reproduce its previous "stay" decision
        bit-for-bit, so scoring can skip it (every proposed move is
        committed, hence unmoved vertices decided "stay").
    """

    bucket: Bucket
    owner_local: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    owner_key: np.ndarray | None
    kv: np.ndarray
    num_gathered_edges: int
    num_vertices: int = 0
    dst_unique: np.ndarray | None = None
    edge_indptr: np.ndarray | None = None
    comm32: np.ndarray | None = None
    dst_counts: np.ndarray | None = None
    dst_edge_order: np.ndarray | None = None
    dst_edge_indptr: np.ndarray | None = None
    dst_comm_snap: np.ndarray | None = None
    can_increment: bool = False
    unit_weights: bool = False
    owner_ref: "weakref.ReferenceType[SweepPlan] | None" = field(default=None, repr=False)
    pairs_valid: bool = False
    pk: np.ndarray | None = None
    pv: np.ndarray | None = None
    pc: np.ndarray | None = None
    pe: np.ndarray | None = None
    group_start: np.ndarray | None = None
    group_vertex: np.ndarray | None = None
    seg_lengths: np.ndarray | None = None
    built_stamp: int = -1
    pending_stamp: int = -1
    built_moved: int = 0
    score_stamp: int = -1
    score_moved: int = 0
    rescore_local: np.ndarray | None = None
    sort_hint: np.ndarray | None = None

    @property
    def owner(self) -> "SweepPlan | None":
        """The :class:`SweepPlan` this bucket belongs to, if still alive.

        Held weakly: a strong back-reference would make every plan a
        reference cycle, kept alive after its phase until the next cyclic
        garbage collection.
        """
        return self.owner_ref() if self.owner_ref is not None else None

    def store_pairs(
        self,
        pv: np.ndarray,
        pc: np.ndarray,
        pe: np.ndarray,
        group_start: np.ndarray,
        group_vertex: np.ndarray,
        seg_lengths: np.ndarray,
        pk: np.ndarray | None = None,
    ) -> None:
        """Cache a freshly built pair structure for reuse.

        ``pv``/``pc`` are upcast to int64 once here: scoring gathers
        through them every sweep, and int32 index arrays force NumPy to
        re-cast them to intp on every fancy-indexing pass.
        """
        self.pk = pk
        self.pv = pv.astype(np.int64, copy=False)
        self.pc = pc.astype(np.int64, copy=False)
        self.pe = pe
        self.group_start = group_start
        self.group_vertex = group_vertex.astype(np.int64, copy=False)
        self.seg_lengths = seg_lengths
        self.built_stamp = self.pending_stamp
        self.pairs_valid = True
        self.score_stamp = -1
        self.rescore_local = None
        owner = self.owner
        if owner is not None:
            self.built_moved = owner.total_moved

    def _set_pairs_from_table(self, pk: np.ndarray, pe: np.ndarray) -> None:
        """Re-derive the per-vertex grouping from a patched pair table.

        Only needed when the pair *set* changed (insertions or vanished
        pairs); pe-only patches keep every derived array untouched.
        """
        n = self.num_vertices
        pv = pk // pk.dtype.type(n)
        pc = pk - pv * pk.dtype.type(n)
        group_start = np.flatnonzero(np.concatenate(([True], pv[1:] != pv[:-1])))
        group_vertex = pv[group_start]
        seg_lengths = np.diff(np.append(group_start, pv.size))
        self.store_pairs(pv, pc, pe, group_start, group_vertex, seg_lengths, pk=pk)

    def refresh_pairs(self, comm: np.ndarray) -> None:
        """Patch the cached pair table in place instead of rebuilding it.

        Between two visits to this bucket, a ``(vertex, community)``
        weight ``e_{i->c}`` changes only through edges whose *destination*
        vertex changed community.  The bucket's dst-CSR
        (``dst_edge_order``/``dst_edge_indptr``) locates exactly those
        edges from the movers' stamps, and each one contributes
        ``-w`` to its old pair and ``+w`` to its new pair.  Patching is
        exact (hence enabled) only when all edge weights are integral:
        integer-valued float64 sums are associative, so the patched table
        is bit-identical to a from-scratch stable rebuild.  Large patches
        fall through to the rebuild path, which is cheaper past ~E/4
        affected edges.
        """
        owner = self.owner
        if (
            self.pairs_valid
            or self.built_stamp < 0
            or self.pv is None
            or owner is None
            # Without validity tracking the move stamps never advance, so
            # a "no stamped movers" check would wrongly bless stale pairs.
            or not owner.track_validity
        ):
            return
        if (
            owner.total_moved - self.built_moved
        ) * _SCAN_FUTILITY_FACTOR > self.dst.size:
            # Enough vertices moved since the build that a pure reuse or
            # a small patch is hopeless — skip the O(unique-dst) stamp
            # scan and go straight to the rebuild (purely a performance
            # gate: the rebuild is always exact).
            return
        stamp = owner.move_stamp
        rows = np.flatnonzero(stamp[self.dst_unique] > self.built_stamp)
        if rows.size == 0:
            # No destination of this bucket moved since the build: the
            # cached pairs are exact as-is.
            self.pairs_valid = True
            owner.pair_reuse_hits += 1
            return
        if not self.can_increment or self.pk is None:
            return
        affected = int(self.dst_counts[rows].sum())
        if affected * _PATCH_EDGE_FACTOR > self.dst.size:
            return
        if self.dst_edge_order is None:
            # First accepted patch for this bucket: build the dst-CSR
            # (edge ids grouped by destination vertex) now rather than
            # at plan build, so buckets that never patch skip its sort.
            # Within-destination edge order is immaterial (patch sums
            # are integral), so the unstable sort is fine.
            self.dst_edge_order = np.argsort(self.dst)
            dst_sorted = self.dst[self.dst_edge_order]
            self.dst_edge_indptr = np.concatenate(
                (
                    np.searchsorted(dst_sorted, self.dst_unique),
                    [dst_sorted.size],
                )
            )
        indptr = self.dst_edge_indptr
        pos, _ = gather_rows(indptr, rows)
        e = self.dst_edge_order[pos]
        old_c = self.dst_comm_snap[e]
        # The snapshot may be int32 even without a bound comm32 mirror
        # (the rebuild downcasts labels when the combined key is int32),
        # so gate on the mirror actually existing, not the snapshot dtype.
        if self.comm32 is not None and self.dst_comm_snap.dtype == np.int32:
            labels = self.comm32
        else:
            labels = comm
        new_c = labels[self.dst[e]]
        changed = new_c != old_c
        if not changed.all():
            e = e[changed]
            old_c = old_c[changed]
            new_c = new_c[changed]
        # A patch only perturbs the pair rows of the changed edges'
        # owners; remember them (and survive the possible re-derivation
        # in _set_pairs_from_table) so delta scoring rescores exactly
        # those vertices.
        score_stamp = self.score_stamp
        touched = self.owner_local[e]
        if e.size:
            self.dst_comm_snap[e] = new_c
            okey = self.owner_key[e]
            upd_k = np.concatenate((okey + old_c, okey + new_c))
            wv = self.weights[e]
            upd_d = np.concatenate((-wv, wv))
            # Patching is only enabled for integral weights, where the
            # summation order cannot change the sums — so the cheaper
            # unstable introsort is safe here.
            o = np.argsort(upd_k)
            upd_k = upd_k[o]
            upd_d = upd_d[o]
            b = np.flatnonzero(np.concatenate(([True], upd_k[1:] != upd_k[:-1])))
            uk = upd_k[b]
            ud = np.add.reduceat(upd_d, b)
            nz = ud != 0.0
            uk = uk[nz]
            ud = ud[nz]
            if uk.size:
                pk = self.pk
                pe = self.pe
                pos2 = np.searchsorted(pk, uk)
                in_bounds = pos2 < pk.size
                exists = np.zeros(uk.size, dtype=bool)
                exists[in_bounds] = pk[pos2[in_bounds]] == uk[in_bounds]
                hit = pos2[exists]
                pe[hit] += ud[exists]
                ins_k = uk[~exists]
                ins_e = ud[~exists]
                if ins_k.size or (pe[hit] == 0.0).any():
                    keep = pe != 0.0
                    pk_kept = pk[keep]
                    pe_kept = pe[keep]
                    if ins_k.size:
                        ipos = np.searchsorted(pk_kept, ins_k)
                        total = pk_kept.size + ins_k.size
                        target = ipos + np.arange(ins_k.size)
                        new_pk = np.empty(total, dtype=pk.dtype)
                        new_pe = np.empty(total, dtype=np.float64)
                        mask = np.ones(total, dtype=bool)
                        mask[target] = False
                        new_pk[target] = ins_k
                        new_pe[target] = ins_e
                        new_pk[mask] = pk_kept
                        new_pe[mask] = pe_kept
                    else:
                        new_pk = pk_kept
                        new_pe = pe_kept
                    self._set_pairs_from_table(new_pk, new_pe)
        self.built_stamp = self.pending_stamp
        self.pairs_valid = True
        self.score_stamp = score_stamp
        self.rescore_local = touched
        owner.pair_patch_hits += 1


@dataclass
class SweepPlan:
    """Per-phase cache of every bucket's edge gather and pair structure.

    Build once per modularity-optimization phase with :meth:`build`; call
    :meth:`for_bucket` each time a bucket is processed and
    :meth:`mark_moved` with the committed movers after each commit.
    Every :meth:`for_bucket` call after the first for a given bucket is a
    *gather reuse hit*; every sweep that finds a bucket's pair cache
    still valid is a *pair reuse hit*.

    Validation is pull-based: :meth:`mark_moved` stamps the movers with a
    monotonically increasing counter (O(movers)), and :meth:`for_bucket`
    compares the stamps of the bucket's unique destination vertices
    against the stamp at which its pairs were built.  ``track_validity``
    is enabled by the per-bucket commit discipline only; the relaxed
    ablation commits outside the plan's view, so its pair caches are
    never marked valid.
    """

    num_vertices: int
    bucket_plans: list[BucketPlan]
    move_stamp: np.ndarray  # vertex -> counter value of its last move
    comm_stamp: np.ndarray  # community -> counter of its last volume/size change
    mover_scratch: np.ndarray  # reusable bool[n] for mover-mover masking
    integral_weights: bool = False
    move_counter: int = 0
    total_moved: int = 0
    track_validity: bool = False
    gather_reuse_hits: int = 0
    pair_reuse_hits: int = 0
    pair_patch_hits: int = 0
    shared_comm32: np.ndarray | None = field(default=None, repr=False)
    _serves: list[int] = field(default_factory=list, repr=False)

    @staticmethod
    def _bucket_plan(
        graph: CSRGraph, bucket: Bucket, n: int, k: np.ndarray, integral: bool
    ) -> BucketPlan:
        """Build one bucket's gathered edge arrays (no owner wiring)."""
        if bucket.size == 0:
            return BucketPlan(
                bucket=bucket,
                owner_local=np.empty(0, dtype=np.int64),
                dst=np.empty(0, dtype=np.int64),
                weights=np.empty(0, dtype=np.float64),
                owner_key=np.empty(0, dtype=np.int64),
                kv=np.empty(0, dtype=np.float64),
                num_gathered_edges=0,
                dst_unique=np.empty(0, dtype=np.int64),
                edge_indptr=np.zeros(1, dtype=np.int64),
            )
        edge_pos, owner_local = gather_rows(graph.indptr, bucket.members)
        dst = graph.indices[edge_pos]
        w = graph.weights[edge_pos]
        not_loop = dst != bucket.members[owner_local]
        owner_local = owner_local[not_loop]
        dst = dst[not_loop]
        w = w[not_loop]
        max_owner = int(owner_local[-1]) if owner_local.size else 0
        # The combined key is owner_local * n + dst_comm with
        # dst_comm < n; check the worst case in Python ints so the
        # product itself cannot wrap.  The key dtype (int32 when it
        # fits, else int64, else None for the lexsort fallback) is
        # what segment_sort_order keys off.
        max_key = max_owner * n + (n - 1) if n > 0 else 0
        if n > 0 and max_key <= _INT32_MAX:
            owner_key = owner_local.astype(np.int32) * np.int32(n)
        elif n > 0 and max_key <= _INT64_MAX:
            owner_key = owner_local * np.int64(n)
        else:
            owner_key = None
        # bincount + flatnonzero beats sort-based np.unique
        # (O(E + n) vs O(E log E)) and yields the same sorted
        # unique set.
        dst_hist = np.bincount(dst, minlength=n)
        dst_unique = np.flatnonzero(dst_hist)
        can_increment = integral and owner_key is not None
        return BucketPlan(
            bucket=bucket,
            owner_local=owner_local,
            dst=dst,
            weights=w,
            owner_key=owner_key,
            kv=k[bucket.members],
            num_gathered_edges=int(edge_pos.size),
            num_vertices=n,
            dst_unique=dst_unique,
            edge_indptr=np.searchsorted(
                owner_local, np.arange(bucket.size + 1)
            ),
            dst_counts=dst_hist[dst_unique] if can_increment else None,
            can_increment=can_increment,
            unit_weights=bool(
                can_increment
                and w.size > 0
                and float(w.min()) == 1.0
                and float(w.max()) == 1.0
            ),
        )

    @classmethod
    def build(cls, graph: CSRGraph, buckets: list[Bucket]) -> "SweepPlan":
        """Precompute the gathered edge arrays of every non-empty bucket."""
        n = graph.num_vertices
        k = graph.weighted_degrees
        # Integral weights make float64 summation order-independent
        # (every partial sum is an exact integer below 2^53), which is
        # what licenses the in-place pair patching of refresh_pairs.
        # The graph computes the flag once; a patched stream graph
        # carries it from its predecessor.
        integral = graph.integral_weights
        plans = [
            cls._bucket_plan(graph, bucket, n, k, integral) for bucket in buckets
        ]
        plan = cls(
            num_vertices=n,
            bucket_plans=plans,
            move_stamp=np.zeros(n, dtype=np.int64),
            comm_stamp=np.zeros(n, dtype=np.int64),
            mover_scratch=np.zeros(n, dtype=bool),
            integral_weights=integral,
            _serves=[0] * len(plans),
        )
        for bucket_plan in plans:
            bucket_plan.owner_ref = weakref.ref(plan)
        return plan

    def replace_bucket(
        self,
        index: int,
        graph: CSRGraph,
        bucket: Bucket,
        *,
        k: np.ndarray | None = None,
    ) -> BucketPlan:
        """Swap in a fresh plan for bucket ``index`` with a new member set.

        The streaming frontier optimizer re-buckets only the *active*
        vertices each sweep; when a bucket's member set changed since its
        plan was built, the cached gather (and pair table) no longer
        describes the vertices being scored and must be rebuilt.  Buckets
        whose active set is unchanged keep their caches — the reuse the
        plan exists for.  The replacement shares the plan's move stamps
        and community mirror, so the usual validation machinery applies
        from its first serve.
        """
        if k is None:
            k = graph.weighted_degrees
        fresh = self._bucket_plan(
            graph, bucket, self.num_vertices, k, self.integral_weights
        )
        fresh.owner_ref = weakref.ref(self)
        fresh.comm32 = self.shared_comm32
        self.bucket_plans[index] = fresh
        # A rebuilt bucket's first serve is a fresh gather, not a reuse.
        self._serves[index] = 0
        return fresh

    def bind_communities(self, comm: np.ndarray) -> np.ndarray | None:
        """Create the shared int32 label mirror and hand it to every bucket.

        Returns the mirror (or ``None`` when labels don't fit int32).
        The caller must keep it in sync with ``comm`` on every commit —
        the incremental commit in ``mod_opt`` does.
        """
        if self.num_vertices > np.iinfo(np.int32).max:
            return None
        comm32 = comm.astype(np.int32)
        self.shared_comm32 = comm32
        for plan in self.bucket_plans:
            plan.comm32 = comm32
        return comm32

    def for_bucket(self, index: int) -> BucketPlan:
        """The cached gather of bucket ``index`` (counts reuse hits).

        Invalidates the bucket's ``pairs_valid`` flag; the subsequent
        :meth:`BucketPlan.refresh_pairs` call re-validates (or patches)
        it from the destination vertices' move stamps.
        """
        if self._serves[index] > 0:
            self.gather_reuse_hits += 1
        self._serves[index] += 1
        plan = self.bucket_plans[index]
        plan.pairs_valid = False
        plan.pending_stamp = self.move_counter
        return plan

    def mark_moved(self, movers: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Stamp committed movers so stale pair caches are detected.

        ``old``/``new`` are the movers' source and target community
        labels — exactly the communities whose volume and size this
        commit changed.  Their stamps drive delta scoring (a bucket only
        rescores vertices whose own or candidate communities changed).
        """
        if not self.track_validity or movers.size == 0:
            return
        self.move_counter += 1
        self.total_moved += int(movers.size)
        self.move_stamp[movers] = self.move_counter
        self.comm_stamp[old] = self.move_counter
        self.comm_stamp[new] = self.move_counter
