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

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph", "EXACT_SUM_LIMIT"]

#: Largest total weight under which integral weights sum exactly in
#: float64 in any order: every partial sum is an integer below 2^53.
EXACT_SUM_LIMIT = 2.0**52


@dataclass(frozen=True)
class CSRGraph:
    """An undirected, weighted graph in CSR form.

    Instances are immutable value objects: algorithms never mutate a graph,
    they build new ones (e.g. during the aggregation phase).

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; row pointer.
    indices:
        ``int64`` array of length ``indptr[-1]``; column indices (neighbour
        vertex ids), one entry per stored direction.
    weights:
        ``float64`` array parallel to ``indices``.

    Derived values (``vertex_of_edge``, ``num_edges``, ``weighted_degrees``,
    ``total_weight``, ``canonical``, ``integral_weights``) are computed on
    first use and cached; :func:`~repro.graph.build.apply_edge_batch`
    hands them to the patched graph through :meth:`trusted` instead of
    recomputing them over every edge.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    _degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
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
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_degrees", np.diff(indptr))

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
        object.__setattr__(graph, "indptr", indptr)
        object.__setattr__(graph, "indices", indices)
        object.__setattr__(graph, "weights", weights)
        object.__setattr__(graph, "_degrees", np.diff(indptr))
        for name, value in cached.items():
            if value is not None:
                object.__setattr__(graph, "_" + name, value)
        return graph

    def cached(self, name: str):
        """The cached derived value ``name``, or ``None`` if not computed yet."""
        return self.__dict__.get("_" + name)

    # ------------------------------------------------------------------ #
    # Basic size queries
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.indptr.size - 1

    @property
    def num_stored_edges(self) -> int:
        """Number of stored directed entries (``2|E|`` minus self-loop dups)."""
        return self.indices.size

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
            if not self.weights.size:
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
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors` (a view, do not mutate)."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

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

