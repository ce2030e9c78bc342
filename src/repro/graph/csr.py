"""Compressed sparse row (CSR) graph storage.

This mirrors the storage layout of the paper (Section 4.1): a graph
``G(V, E)`` is represented by two arrays ``vertices`` (here ``indptr``) and
``edges`` (here ``indices``) of size ``|V|+1`` and ``2|E|`` respectively,
plus a parallel ``weights`` array.  The neighbours of vertex ``i`` live in
``indices[indptr[i]:indptr[i+1]]``.

Weight conventions (pinned in DESIGN.md §5, property-tested):

* every undirected edge ``{i, j}`` with ``i != j`` is stored twice, once in
  each endpoint's row, with the same weight;
* a self-loop ``{i, i}`` is stored exactly once (in row ``i``);
* the weighted degree ``k_i`` is the sum of row ``i``'s weights — the
  paper's ``k_i = sum_{j in N[i]} w(i, j)`` with the self-loop counted once;
* ``2m = sum_i k_i = weights.sum()``, which is what Eq. (1) normalises by.

These conventions make modularity invariant under aggregation: the
community self-loop produced by ``mergeCommunity`` accumulates every member
edge into the own community (internal undirected edges twice, old
self-loops once), so the contracted vertex's ``k`` equals the community's
``a_c`` exactly.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

__all__ = ["CSRGraph", "EXACT_SUM_LIMIT"]

#: Largest total weight under which integral weights sum exactly in
#: float64 in any order: every partial sum is an integer below 2^53.
EXACT_SUM_LIMIT = 2.0**52

#: Spare room a compaction leaves in a fresh row store, as a fraction of
#: the live entries: the rows that later batches append go there.
_ROW_SLACK = 0.25


class _RowStore:
    """An append-only ``indices``/``weights`` buffer pair.

    Consecutive patched graphs share one store: each owns the rows its
    ``row_start``/``degrees`` name and never reads past them.  Entries
    below ``fill`` belong to some version and are never written again;
    a child of the newest ``version`` claims room past ``fill`` under
    ``lock``, so two children of one parent never write the same region.
    """

    __slots__ = ("indices", "weights", "fill", "version", "lock")

    def __init__(self, indices: np.ndarray, weights: np.ndarray, fill: int) -> None:
        self.indices = indices
        self.weights = weights
        self.fill = fill
        self.version = 0
        self.lock = threading.Lock()

    def reserve(self, version: int, size: int) -> tuple[int, int] | None:
        """Claim ``size`` entries for a child of ``version``.

        Returns ``(start, child_version)``, or ``None`` when ``version``
        is not the newest one or the entries do not fit.
        """
        with self.lock:
            if version != self.version or self.fill + size > self.indices.size:
                return None
            start = self.fill
            self.fill += size
            self.version += 1
            return start, self.version


def _row_runs(
    src: np.ndarray, dst: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge row copies into maximal runs contiguous at both ends.

    Row ``i`` copies ``lengths[i]`` entries from ``src[i]`` to
    ``dst[i]``; rows come in destination order.  Empty rows are
    dropped.  Returns ``(src, dst, length)`` per run.
    """
    live = lengths > 0
    src, dst, lengths = src[live], dst[live], lengths[live]
    if src.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    ends = src[:-1] + lengths[:-1]
    breaks = np.flatnonzero((src[1:] != ends) | (dst[1:] != dst[:-1] + lengths[:-1]))
    first = np.concatenate(([0], breaks + 1))
    return src[first], dst[first], np.add.reduceat(lengths, first)


def _copy_runs(
    out: tuple[np.ndarray, ...],
    source: tuple[np.ndarray, ...],
    runs: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Copy runs (from :func:`_row_runs`) of each source into its output.

    One slice copy per run: even at ten thousand runs over a million
    entries this beat a gather by positions.
    """
    for s, d, size in zip(*(part.tolist() for part in runs)):
        for target, array in zip(out, source):
            target[d : d + size] = array[s : s + size]


class CSRGraph:
    """An undirected, weighted graph in CSR form.

    Instances are immutable value objects: algorithms never mutate a graph,
    they build new ones (e.g. during the aggregation phase).

    Storage is row-addressed.  Row ``v`` is the slice
    ``[row_start[v], row_start[v] + degrees[v])`` of the ``row_indices``
    / ``row_weights`` buffer pair (the *row store*), which consecutive
    graphs patched by :func:`~repro.graph.build.apply_edge_batch` share:
    a batch writes only the rows it touches, past the store's fill mark
    (see :meth:`replace_rows`).  A graph built from arrays stores its
    rows back to back, so its row store *is* its flat arrays.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; row pointer.
    indices:
        ``int64`` array of length ``indptr[-1]``; column indices (neighbour
        vertex ids), one entry per stored direction.
    weights:
        ``float64`` array parallel to ``indices``.

    The flat ``indices``/``weights`` of a patched graph are built on its
    first whole-graph read (they, ``vertex_of_edge`` and every O(E)
    derived value below read them) and cached; a stream batch reads
    rows through :meth:`gather` and never builds them.  ``indptr`` is a
    prefix sum of ``degrees``.

    Derived values (``vertex_of_edge``, ``num_edges``, ``weighted_degrees``,
    ``total_weight``, ``canonical``, ``integral_weights``) are computed on
    first use and cached; :func:`~repro.graph.build.apply_edge_batch`
    hands them to the patched graph through :meth:`replace_rows` instead
    of recomputing them over every edge.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a non-empty 1-D array")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indices.shape != weights.shape or indices.ndim != 1:
            raise ValueError("indices and weights must be parallel 1-D arrays")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1]={indptr[-1]} does not match {indices.size} stored edges"
            )
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge endpoint out of range")
        self._set_flat(indptr, indices, weights)

    def _set_flat(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        """Store rows back to back: the flat arrays are the row store."""
        put = object.__setattr__
        put(self, "_store", _RowStore(indices, weights, indices.size))
        put(self, "_version", 0)
        put(self, "_row_start", indptr[:-1])
        put(self, "_degrees", np.diff(indptr))
        put(self, "_num_stored", int(indices.size))
        put(self, "_indptr", indptr)
        put(self, "_indices", indices)
        put(self, "_weights", weights)

    @classmethod
    def trusted(
        cls, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, **cached
    ) -> "CSRGraph":
        """A graph from arrays the caller guarantees valid, skipping validation.

        No O(E) check runs: the arrays must already be contiguous
        ``int64``/``int64``/``float64`` and satisfy every invariant
        ``__init__`` checks.  ``cached`` pre-fills derived values by name
        (``vertex_of_edge``, ``num_edges``, ``weighted_degrees``,
        ``total_weight``, ``canonical``, ``integral_weights``); each must
        equal what the property would compute.  ``None`` leaves one lazy.
        """
        graph = object.__new__(cls)
        graph._set_flat(indptr, indices, weights)
        graph._put_cached(cached)
        return graph

    def _put_cached(self, cached: dict) -> None:
        for name, value in cached.items():
            if value is not None:
                object.__setattr__(self, "_" + name, value)

    def replace_rows(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        flat_patch: functools.partial | None = None,
        **cached,
    ) -> "CSRGraph":
        """This graph with the rows ``rows`` replaced; no O(E) work.

        ``rows`` are sorted unique vertex ids; ``indices``/``weights``
        hold their new contents back to back, ``lengths[i]`` entries for
        ``rows[i]``.  The caller guarantees the result is a valid graph.

        The new rows are appended past the row store's fill mark, and
        the O(n) ``row_start``/``degrees`` arrays are copied and patched.
        Two cases compact instead, into a fresh store with
        ``_ROW_SLACK`` spare room, copying the kept rows by
        contiguous runs: the rows do not fit, or this graph is not the
        store's newest version (it was patched already: a second child
        would branch the store).  This graph stays valid either way.

        ``flat_patch``, a :func:`functools.partial` returning
        ``(indices, weights)``, builds the new graph's flat arrays on
        their first read by splicing this graph's flat arrays, instead
        of by runs from the store.
        ``cached`` pre-fills derived values as for :meth:`trusted`.
        """
        degrees = self._degrees.copy()
        degrees[rows] = lengths
        offset = np.cumsum(lengths) - lengths  # each new row's start in ``indices``
        live = self._num_stored + indices.size - int(self._degrees[rows].sum())
        store = self._store
        claimed = store.reserve(self._version, indices.size)
        graph = object.__new__(type(self))
        put = object.__setattr__
        if claimed is not None:
            start, version = claimed
            stop = start + indices.size
            store.indices[start:stop] = indices
            store.weights[start:stop] = weights
            row_start = self._row_start.copy()
            row_start[rows] = start + offset
        else:
            version = 0
            indptr = np.zeros(degrees.size + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            row_start = indptr[:-1]
            capacity = live + int(np.ceil(live * _ROW_SLACK))
            out = (
                np.empty(capacity, dtype=np.int64),
                np.empty(capacity, dtype=np.float64),
            )
            kept = self._degrees.copy()
            kept[rows] = 0
            # The kept rows by runs, then the new rows.  Built flat
            # arrays hold the kept rows in far fewer runs than the store.
            if self.cached("indices") is not None:
                source, starts = (self._indices, self._weights), self.indptr[:-1]
            else:
                source, starts = (store.indices, store.weights), self._row_start
            _copy_runs(out, source, _row_runs(starts, row_start, kept))
            _copy_runs(
                out,
                (indices, weights),
                _row_runs(offset, row_start[rows], lengths),
            )
            store = _RowStore(out[0], out[1], live)
            put(graph, "_indptr", indptr)
            flat_patch = None  # the compacted rows already lie flat
        put(graph, "_store", store)
        put(graph, "_version", version)
        put(graph, "_row_start", row_start)
        put(graph, "_degrees", degrees)
        put(graph, "_num_stored", live)
        put(graph, "_flat_patch", flat_patch)
        graph._put_cached(cached)
        return graph

    def cached(self, name: str):
        """The cached derived value ``name``, or ``None`` if not computed yet.

        ``cached("indices")`` and ``cached("weights")`` tell whether the
        flat arrays have been built.
        """
        return self.__dict__.get("_" + name)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"CSRGraph is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CSRGraph is immutable: cannot delete {name!r}")

    # ------------------------------------------------------------------ #
    # Storage: the row store, and the flat arrays built from it
    # ------------------------------------------------------------------ #
    @property
    def row_start(self) -> np.ndarray:
        """Start of each vertex's row in :attr:`row_indices`."""
        return self._row_start

    @property
    def row_indices(self) -> np.ndarray:
        """The row store's neighbour ids (shared; index it by :meth:`gather`)."""
        return self._store.indices

    @property
    def row_weights(self) -> np.ndarray:
        """The row store's weights, parallel to :attr:`row_indices`."""
        return self._store.weights

    def gather(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``vertices``: ``(positions, owner_local)``.

        ``positions`` index :attr:`row_indices` / :attr:`row_weights`,
        each row's entries in order; ``owner_local[e]`` is the position
        in ``vertices`` that owns entry ``e``
        (:func:`~repro.gpu.thrust.gather_rows`).  No flat array is read.
        """
        # Imported here: repro.gpu imports the metrics, which import this
        # module.
        from ..gpu.thrust import gather_rows

        return gather_rows(self._row_start, vertices, self._degrees)

    @property
    def indptr(self) -> np.ndarray:
        """``int64`` row pointer of the flat arrays (prefix sum of ``degrees``)."""
        indptr = self.__dict__.get("_indptr")
        if indptr is None:
            indptr = np.zeros(self._degrees.size + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            object.__setattr__(self, "_indptr", indptr)
        return indptr

    @property
    def indices(self) -> np.ndarray:
        """Flat neighbour ids, rows back to back (built on first read)."""
        return self._flat()[0]

    @property
    def weights(self) -> np.ndarray:
        """Flat weights parallel to :attr:`indices` (built on first read)."""
        return self._flat()[1]

    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat arrays, built and cached on first use.

        A pending flat patch splices them from the parent's flat arrays;
        otherwise the rows are copied out of the store by contiguous
        runs (rows already back to back from position 0, as after a
        compaction, are returned as views).  The row store is never
        re-pointed: building is a read, whatever a later batch does.
        """
        indices = self.__dict__.get("_indices")
        if indices is not None:
            return indices, self._weights
        patch = self.__dict__.get("_flat_patch")
        if patch is not None:
            indices, weights = patch()
        else:
            store = self._store
            indptr = self.indptr
            runs = _row_runs(self._row_start, indptr[:-1], self._degrees)
            total = self._num_stored
            if total == 0 or (runs[0].size == 1 and runs[0][0] == 0):
                indices = store.indices[:total]
                weights = store.weights[:total]
            else:
                indices = np.empty(total, dtype=np.int64)
                weights = np.empty(total, dtype=np.float64)
                _copy_runs((indices, weights), (store.indices, store.weights), runs)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_flat_patch", None)
        return indices, weights

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this graph keeps alive, each counted once.

        The row store at capacity, the row arrays, every cached array
        (flat arrays included, when built) and the arrays a pending flat
        patch holds; a view counts as the array it views.  Reading it
        builds nothing.
        """
        arrays = [self._store.indices, self._store.weights]
        arrays += [v for v in self.__dict__.values() if isinstance(v, np.ndarray)]
        patch = self.__dict__.get("_flat_patch")
        if patch is not None:
            arrays += [a for a in patch.args if isinstance(a, np.ndarray)]
        owners: dict[int, int] = {}
        for array in arrays:
            while isinstance(array.base, np.ndarray):
                array = array.base
            owners[id(array)] = array.nbytes
        return sum(owners.values())

    # ------------------------------------------------------------------ #
    # Basic size queries
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._degrees.size

    @property
    def num_stored_edges(self) -> int:
        """Number of stored directed entries (``2|E|`` minus self-loop dups)."""
        return self._num_stored

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, counting each self-loop once (cached)."""
        cached = self.__dict__.get("_num_edges")
        if cached is None:
            loops = int(np.count_nonzero(self.indices == self.vertex_of_edge))
            cached = (self.num_stored_edges - loops) // 2 + loops
            object.__setattr__(self, "_num_edges", cached)
        return cached

    @property
    def degrees(self) -> np.ndarray:
        """Structural degree of each vertex (row length; self-loop counts 1)."""
        return self._degrees

    # The O(V+E) derived quantities (``num_edges`` above and the five
    # below) are cached on first use: instances are immutable (algorithms
    # build new graphs, never mutate), and the hot paths — compute_moves
    # reads ``m`` per bucket, the sweep plans read ``weighted_degrees``
    # per level, a stream batch reads ``num_edges`` several times — would
    # otherwise pay a full-edge reduction on every call.

    @property
    def vertex_of_edge(self) -> np.ndarray:
        """Source vertex id of each stored entry (the CSR row expansion)."""
        cached = self.__dict__.get("_vertex_of_edge")
        if cached is None:
            cached = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self._degrees
            )
            object.__setattr__(self, "_vertex_of_edge", cached)
        return cached

    @property
    def weighted_degrees(self) -> np.ndarray:
        """``k_i``: sum of row ``i``'s weights, self-loop counted once."""
        cached = self.__dict__.get("_weighted_degrees")
        if cached is None:
            if not self._num_stored:
                cached = np.zeros(self.num_vertices, dtype=np.float64)
            else:
                cached = np.bincount(
                    self.vertex_of_edge,
                    weights=self.weights,
                    minlength=self.num_vertices,
                )
            object.__setattr__(self, "_weighted_degrees", cached)
        return cached

    @property
    def total_weight(self) -> float:
        """``2m``: the sum of all stored entry weights (= sum of ``k_i``)."""
        cached = self.__dict__.get("_total_weight")
        if cached is None:
            cached = float(self.weights.sum())
            object.__setattr__(self, "_total_weight", cached)
        return cached

    @property
    def canonical(self) -> bool:
        """Rows sorted strictly by neighbour id: no parallel stored entries.

        What :func:`~repro.graph.build.from_edges` produces and what the
        row-local searches of :mod:`repro.graph.build` require (cached).
        """
        cached = self.__dict__.get("_canonical")
        if cached is None:
            indices = self.indices
            rising = indices[1:] > indices[:-1]
            # A row start may step down; only steps inside a row count.
            starts = self.indptr[1:-1]
            starts = starts[(starts > 0) & (starts < indices.size)]
            rising[starts - 1] = True
            cached = bool(rising.all())
            object.__setattr__(self, "_canonical", cached)
        return cached

    @property
    def integral_weights(self) -> bool:
        """Every weight is an integer and ``2m`` is at most :data:`EXACT_SUM_LIMIT`.

        Then every float64 sum of stored weights is an exact integer,
        whatever the summation order, which licenses the shortcuts that
        rely on exact sums: sweep-plan pair patching, the tracked
        modularity of :mod:`repro.core.mod_opt` and the carried
        contraction of :class:`~repro.stream.StreamSession` (cached).
        """
        cached = self.__dict__.get("_integral_weights")
        if cached is None:
            w = self.weights
            cached = bool(
                w.size == 0
                or (np.all(w == np.rint(w)) and self.total_weight <= EXACT_SUM_LIMIT)
            )
            object.__setattr__(self, "_integral_weights", cached)
        return cached

    @property
    def m(self) -> float:
        """The paper's ``m``: half the total stored weight."""
        return self.total_weight / 2.0

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex ``v`` (a view, do not mutate)."""
        start = int(self._row_start[v])
        return self._store.indices[start : start + int(self._degrees[v])]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors` (a view, do not mutate)."""
        start = int(self._row_start[v])
        return self._store.weights[start : start + int(self._degrees[v])]

    def self_loop_weight(self, v: int) -> float:
        """Weight of the self-loop at ``v`` (0.0 if absent)."""
        row = self.neighbors(v)
        mask = row == v
        if not mask.any():
            return 0.0
        return float(self.neighbor_weights(v)[mask].sum())

    def self_loop_weights(self) -> np.ndarray:
        """Vector of self-loop weights for every vertex."""
        loop_mask = self.indices == self.vertex_of_edge
        return np.bincount(
            self.vertex_of_edge[loop_mask],
            weights=self.weights[loop_mask],
            minlength=self.num_vertices,
        )

    # ------------------------------------------------------------------ #
    # Conversions and dunder helpers
    # ------------------------------------------------------------------ #
    def edge_list(self, *, unique: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(u, v, w)`` arrays of the edges.

        With ``unique=True`` each undirected edge appears once with
        ``u <= v``; otherwise every stored direction is returned.
        """
        u = self.vertex_of_edge
        v = self.indices
        w = self.weights
        if not unique:
            return u.copy(), v.copy(), w.copy()
        keep = u <= v
        return u[keep], v[keep], w[keep]

    def to_scipy(self):
        """Convert to a :class:`scipy.sparse.csr_matrix` (self-loop once)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self.num_vertices, self.num_vertices),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash for sets
        return object.__hash__(self)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, total_weight={self.total_weight:g})"
        )

