"""Batch coalescing: fold a burst of edge batches into one net batch.

The service layer's per-session queue merges every request that piles up
while an ``apply()`` is in flight into a **single** incremental
re-clustering (:class:`repro.serve.server.ReproServer`).  The fold lives
here, transport-free, so its equivalence guarantee is testable against
:func:`repro.graph.build.apply_edge_batch` directly:

* **graph equivalence** — applying the coalesced batch yields exactly
  the same CSR arrays as applying the burst's batches one at a time
  (bit-identical for integer-valued weights; for arbitrary float
  weights, summing ``w0 + a1 + a2`` in one order vs. ``w0 + (a1 + a2)``
  can differ in the last ulp — the only caveat);
* **clustering equivalence** — under ``screening="exact"`` a
  :class:`~repro.stream.StreamSession` apply of the coalesced batch is
  bit-identical to a full warm-started :func:`~repro.core.gpu_louvain.
  gpu_louvain` run on the sequentially-updated graph, so coalescing
  loses no information vs. re-clustering after the whole burst.

Per-pair folding rules (matching ``apply_edge_batch`` semantics —
inserts *sum* onto existing weights, removes delete entirely, a pair
both removed and added in one batch ends with exactly the added
weight):

====================================  =================================
burst history of pair ``{u, v}``      net batch contribution
====================================  =================================
adds only                             one add with the summed weight
existed, removed (maybe re-added w)   remove, plus an add of ``w`` if
                                      re-added after the last remove
created in burst, later removed       nothing
created in burst, still present       one add with the weight since the
                                      last remove
====================================  =================================

Each :meth:`BatchCoalescer.add_batch` call is validated **sequentially**
and transactionally: removing a pair that does not exist at that point
of the burst raises :class:`ValueError` (exactly as the sequential
apply would) and leaves the coalescer's state untouched, so the server
can reject one bad request and still fold the rest of the burst.
"""

from __future__ import annotations

import numpy as np

from ..graph.build import _canonical_batch_adds, _canonical_batch_removes, find_entries
from ..graph.csr import CSRGraph

__all__ = ["BatchCoalescer"]

# Per-pair fold state indices (lists, not a dataclass: this is the inner
# loop of every queued request).
_EXISTS = 0  # pair currently exists in the simulated graph
_WEIGHT = 1  # accumulated added weight since the last remove
_RESET = 2   # an entry existing in the base graph was removed at some point


class BatchCoalescer:
    """Folds a sequence of ``(add, remove)`` batches into one net batch.

    Parameters
    ----------
    graph:
        The canonical base graph the burst applies to (existence checks
        for removals resolve against it).

    Attributes
    ----------
    requests:
        Batches folded in so far (accepted ones only).
    pairs_touched:
        Distinct undirected pairs named by the accepted batches.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph
        self._n = graph.num_vertices
        self._state: dict[int, list] = {}
        # Base-graph existence of every pair key seen so far.
        self._base: dict[int, bool] = {}
        self.requests = 0

    @property
    def pairs_touched(self) -> int:
        return len(self._state)

    def _look_up(self, keys: np.ndarray) -> None:
        """Resolve the base-graph existence of keys not seen before.

        One row-local search per batch
        (:func:`~repro.graph.build.find_entries`): O(keys log degree),
        nothing per stored entry.
        """
        unseen = np.asarray(
            [key for key in keys.tolist() if key not in self._base], dtype=np.int64
        )
        if unseen.size:
            _, found = find_entries(self._graph, unseen // self._n, unseen % self._n)
            self._base.update(zip(unseen.tolist(), found.tolist()))

    def _base_exists(self, key: int) -> bool:
        """Whether the pair exists in the base graph (looked up already)."""
        return self._base[key]

    def _get(self, key: int) -> list:
        state = self._state.get(key)
        if state is None:
            exists = self._base_exists(key)
            state = self._state[key] = [exists, 0.0, False]
        return state

    def add_batch(
        self,
        *,
        add: tuple | None = None,
        remove: tuple | None = None,
    ) -> None:
        """Fold one batch (same ``add``/``remove`` shape as ``apply``).

        Raises :class:`ValueError` — without mutating any state — when
        the batch is malformed or removes a pair that does not exist at
        this point of the burst.
        """
        n = self._n
        empty = np.empty(0, dtype=np.int64)
        akey, aw = (
            _canonical_batch_adds(add, n)
            if add is not None
            else (empty, np.empty(0, dtype=np.float64))
        )
        rkey = _canonical_batch_removes(remove, n) if remove is not None else empty
        self._look_up(np.concatenate((akey, rkey)))

        # Validate every removal against the pre-batch state before any
        # mutation (apply_edge_batch requires existence at batch start,
        # even for pairs re-added in the same batch).
        for key in map(int, rkey):
            state = self._state.get(key)
            exists = state[_EXISTS] if state is not None else self._base_exists(key)
            if not exists:
                raise ValueError(
                    f"cannot remove non-existent edge ({key // n}, {key % n})"
                )

        for key in map(int, rkey):
            state = self._get(key)
            state[_EXISTS] = False
            state[_WEIGHT] = 0.0
            if self._base_exists(key):
                state[_RESET] = True
        for key, w in zip(map(int, akey), aw):
            state = self._get(key)
            state[_EXISTS] = True
            state[_WEIGHT] += float(w)
        self.requests += 1

    def net(self) -> tuple[tuple | None, tuple | None]:
        """The coalesced ``(add, remove)`` batch (key-sorted, deterministic).

        Suitable for one :meth:`~repro.stream.StreamSession.apply` /
        :func:`~repro.graph.build.apply_edge_batch` call; either side is
        ``None`` when empty.  Pairs whose fold nets out to "no change"
        (burst-created then deleted, or a pure zero-weight touch of an
        existing entry) are dropped.
        """
        n = self._n
        add_u: list[int] = []
        add_v: list[int] = []
        add_w: list[float] = []
        rem_u: list[int] = []
        rem_v: list[int] = []
        for key in sorted(self._state):
            exists, weight, reset = self._state[key]
            lo, hi = key // n, key % n
            if reset:
                rem_u.append(lo)
                rem_v.append(hi)
                if exists:
                    add_u.append(lo)
                    add_v.append(hi)
                    add_w.append(weight)
            elif exists and self._base_exists(key):
                # Pure weight accumulation onto an existing entry; a net
                # zero would re-cluster a pair whose row never changed.
                if weight != 0.0:
                    add_u.append(lo)
                    add_v.append(hi)
                    add_w.append(weight)
            elif exists:
                # Created by the burst (possibly with weight 0.0 — a
                # structural change even then).
                add_u.append(lo)
                add_v.append(hi)
                add_w.append(weight)
        add = (
            (
                np.asarray(add_u, dtype=np.int64),
                np.asarray(add_v, dtype=np.int64),
                np.asarray(add_w, dtype=np.float64),
            )
            if add_u
            else None
        )
        remove = (
            (np.asarray(rem_u, dtype=np.int64), np.asarray(rem_v, dtype=np.int64))
            if rem_u
            else None
        )
        return add, remove
