"""Builders that turn raw edge data into :class:`~repro.graph.csr.CSRGraph`.

The entry point used everywhere else is :func:`from_edges`, which accepts an
arbitrary (possibly duplicated, one-directional, unsorted) undirected edge
list and produces a canonical CSR graph: symmetrised, duplicate edges merged
by weight summation, rows sorted by neighbour id.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from .csr import EXACT_SUM_LIMIT, CSRGraph

__all__ = [
    "from_edges",
    "from_directed_entries",
    "from_scipy",
    "from_networkx",
    "empty_graph",
    "relabel",
    "induced_subgraph",
    "apply_edge_batch",
    "find_entries",
    "update_edges",
    "ensure_connected_relabelled",
]


def from_edges(
    u: Iterable[int] | np.ndarray,
    v: Iterable[int] | np.ndarray,
    w: Iterable[float] | np.ndarray | None = None,
    *,
    num_vertices: int | None = None,
) -> CSRGraph:
    """Build a canonical undirected CSR graph from an edge list.

    Each pair ``(u[i], v[i])`` denotes one undirected edge; supplying the
    edge in either or both directions is equivalent — duplicates (including
    reverse duplicates) are merged and their weights summed.  Self-loops are
    allowed and end up stored once.

    Parameters
    ----------
    u, v:
        Endpoint arrays of equal length.
    w:
        Optional weights (default: all ones).
    num_vertices:
        Total vertex count; defaults to ``max(endpoint) + 1``.

    Endpoints are validated as a batch's are: a boolean, fractional or
    non-finite id raises :class:`ValueError` instead of truncating to a
    vertex, and so does a NaN or infinite weight (one would poison
    ``2m`` and every modularity computed from it).
    """
    u = _vertex_ids(u, "edge")
    v = _vertex_ids(v, "edge")
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")
    if w is None:
        w = np.ones(u.size, dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64).ravel()
        if w.shape != u.shape:
            raise ValueError("w must match u/v in length")
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
    if u.size and (min(u.min(), v.min()) < 0):
        raise ValueError("vertex ids must be non-negative")
    n = int(num_vertices) if num_vertices is not None else (
        int(max(u.max(), v.max())) + 1 if u.size else 0
    )
    if u.size and max(u.max(), v.max()) >= n:
        raise ValueError("num_vertices too small for supplied edge endpoints")

    if u.size == 0:
        return empty_graph(n)

    # Canonicalise each undirected edge as key (min, max) and merge
    # duplicates.  Arrays are built in place and dropped once spent:
    # this build is the peak memory of loading a graph file.
    key = np.minimum(u, v)
    key *= n
    key += np.maximum(u, v)
    order = _stable_argsort(key)
    key, w = key[order], w[order]
    del order
    boundary = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    key, w = key[boundary], np.add.reduceat(w, boundary)
    del boundary
    lo, hi = np.divmod(key, n)
    del key

    # Expand to both stored directions (self-loops once).
    not_loop = lo != hi
    src = np.concatenate([lo, hi[not_loop]])
    dst = np.concatenate([hi, lo[not_loop]])
    w = np.concatenate([w, w[not_loop]])
    del lo, hi, not_loop
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # The stored keys are unique, so any sort gives the stable order.
    src *= np.int64(max(n, 1))
    src += dst
    order = np.argsort(src)
    del src
    return CSRGraph(indptr=indptr, indices=dst[order], weights=w[order])


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of a non-empty int64 array.

    Where it fits in int64 the composite ``key * size + index`` is unique,
    so NumPy's default sort, several times faster than its stable sort
    on int64, gives the same order.
    """
    if key.min() < 0 or key.max() >= 2**63 // key.size:
        return np.argsort(key, kind="stable")
    composite = key * key.size
    composite += np.arange(key.size)
    return np.argsort(composite)


def from_directed_entries(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, num_vertices: int
) -> CSRGraph:
    """Build a CSR graph from already-expanded stored entries.

    Callers (the aggregation kernels) supply exactly the entries to store:
    both directions of every off-diagonal edge and each self-loop once.
    No symmetrisation or merging happens here — the input is trusted (and
    validated in tests); entries are only sorted into CSR order.
    """
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    if not (u.shape == v.shape == w.shape):
        raise ValueError("u, v, w must be parallel")
    counts = np.bincount(u, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(u * np.int64(max(num_vertices, 1)) + v, kind="stable")
    return CSRGraph(indptr=indptr, indices=v[order], weights=w[order])


def from_scipy(matrix) -> CSRGraph:
    """Build from a scipy sparse matrix, interpreted as undirected.

    The matrix is symmetrised by ``max`` of the two triangles; the diagonal
    becomes self-loops.
    """
    from scipy.sparse import coo_matrix

    coo = coo_matrix(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise ValueError("adjacency matrix must be square")
    upper = coo.row <= coo.col
    return from_edges(
        coo.row[upper], coo.col[upper], coo.data[upper], num_vertices=coo.shape[0]
    )


def from_networkx(graph) -> CSRGraph:
    """Build from a ``networkx`` graph (nodes relabelled to 0..n-1).

    Edge attribute ``weight`` is honoured when present, else 1.0.
    """
    nodes = list(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    us, vs, ws = [], [], []
    for a, b, data in graph.edges(data=True):
        us.append(index[a])
        vs.append(index[b])
        ws.append(float(data.get("weight", 1.0)))
    return from_edges(us, vs, ws, num_vertices=len(nodes))


def empty_graph(num_vertices: int) -> CSRGraph:
    """A graph with ``num_vertices`` vertices and no edges."""
    return CSRGraph(
        indptr=np.zeros(num_vertices + 1, dtype=np.int64),
        indices=np.empty(0, dtype=np.int64),
        weights=np.empty(0, dtype=np.float64),
    )


def relabel(graph: CSRGraph, permutation: np.ndarray) -> CSRGraph:
    """Relabel vertices: new id of old vertex ``v`` is ``permutation[v]``."""
    permutation = np.asarray(permutation, dtype=np.int64)
    if permutation.shape != (graph.num_vertices,):
        raise ValueError("permutation must have one entry per vertex")
    if np.bincount(permutation, minlength=graph.num_vertices).max(initial=0) > 1:
        raise ValueError("permutation is not a bijection")
    u, v, w = graph.edge_list(unique=True)
    return from_edges(
        permutation[u], permutation[v], w, num_vertices=graph.num_vertices
    )


def induced_subgraph(graph: CSRGraph, vertices: np.ndarray) -> CSRGraph:
    """Subgraph induced on ``vertices`` (relabelled 0..len-1 in given order)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    newid = np.full(graph.num_vertices, -1, dtype=np.int64)
    newid[vertices] = np.arange(vertices.size, dtype=np.int64)
    u, v, w = graph.edge_list(unique=True)
    keep = (newid[u] >= 0) & (newid[v] >= 0)
    return from_edges(
        newid[u[keep]], newid[v[keep]], w[keep], num_vertices=vertices.size
    )


def _vertex_ids(values, side: str) -> np.ndarray:
    """One batch side's endpoints as a flat int64 array.

    Raises :class:`ValueError` where a cast would silently change the
    batch: a boolean is not a vertex id, and neither is a non-integral
    or non-finite number (``1.7`` would truncate to vertex 1).
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        array = values.ravel()
    else:
        # Element-wise: a list mixing booleans into ints converts to ints.
        items = np.asarray(values, dtype=object).ravel()
        if any(isinstance(x, (bool, np.bool_)) for x in items):
            raise ValueError(f"{side} endpoints must be vertex ids, not booleans")
        array = np.asarray(items.tolist())
    if array.dtype.kind == "b":
        raise ValueError(f"{side} endpoints must be vertex ids, not booleans")
    if array.dtype.kind == "f":
        if not (np.isfinite(array).all() and (array == np.trunc(array)).all()):
            raise ValueError(f"{side} endpoints must be integral vertex ids")
    elif array.dtype.kind not in "iu":
        raise ValueError(f"{side} endpoints must be integer vertex ids")
    return array.astype(np.int64, copy=False)


def _canonical_batch_adds(
    add: tuple[np.ndarray, np.ndarray, np.ndarray | None], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalise the add side of a batch: merged ``(key, weight)`` pairs.

    Keys are ``lo * n + hi`` with ``lo <= hi``; duplicate pairs within the
    batch are merged by weight summation (stable order, like
    :func:`from_edges`).  Endpoints are validated by :func:`_vertex_ids`;
    a non-finite weight raises :class:`ValueError` (one NaN would poison
    ``2m`` and every later modularity).
    """
    au = _vertex_ids(add[0], "insertion")
    av = _vertex_ids(add[1], "insertion")
    aw = (
        np.ones(au.size, dtype=np.float64)
        if add[2] is None
        else np.asarray(add[2], dtype=np.float64).ravel()
    )
    if au.shape != av.shape or aw.shape != au.shape:
        raise ValueError("add arrays must be parallel")
    if not np.isfinite(aw).all():
        raise ValueError("insertion weights must be finite")
    if au.size and (min(au.min(), av.min()) < 0 or max(au.max(), av.max()) >= n):
        raise ValueError("insertion endpoints out of range")
    if au.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    akey = np.minimum(au, av) * n + np.maximum(au, av)
    order = np.argsort(akey, kind="stable")
    akey = akey[order]
    aw = aw[order]
    boundary = np.flatnonzero(np.concatenate(([True], akey[1:] != akey[:-1])))
    return akey[boundary], np.add.reduceat(aw, boundary)


def _canonical_batch_removes(
    remove: tuple[np.ndarray, np.ndarray], n: int
) -> np.ndarray:
    """Canonicalise the remove side of a batch: sorted unique pair keys.

    Keys are ``lo * n + hi`` with ``lo <= hi``, as for
    :func:`_canonical_batch_adds`; existence is the caller's check.
    """
    ru = _vertex_ids(remove[0], "removal")
    rv = _vertex_ids(remove[1], "removal")
    if ru.shape != rv.shape:
        raise ValueError("remove arrays must be parallel")
    if ru.size == 0:
        return np.empty(0, dtype=np.int64)
    if min(ru.min(), rv.min()) < 0 or max(ru.max(), rv.max()) >= n:
        raise ValueError("removal endpoints out of range")
    return np.unique(np.minimum(ru, rv) * n + np.maximum(ru, rv))


def find_entries(
    graph: CSRGraph, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-local binary search for the stored entries ``(rows[i], cols[i])``.

    Returns ``(pos, found)``: ``pos[i]`` is the first position of row
    ``rows[i]`` whose neighbour is not below ``cols[i]`` — the entry
    itself when ``found[i]``, else where it would be inserted.
    Positions index the row store (:attr:`CSRGraph.row_indices`), so no
    flat array is built.  All queries bisect together, one step per
    pass, so ``B`` queries cost O(B log d_max) and no O(E) key array is
    built.  Requires a canonical graph (:attr:`CSRGraph.canonical`).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    indices = graph.row_indices
    lo = graph.row_start[rows]
    end = lo + graph.degrees[rows]
    hi = end
    while True:
        live = lo < hi
        if not live.any():
            break
        mid = (lo + hi) >> 1
        right = live & (indices[np.where(live, mid, 0)] < cols)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(live & ~right, mid, hi)
    found = lo < end
    if found.any():
        found &= indices[np.where(found, lo, 0)] == cols
    return lo, found


#: Array entries per edit point above which :func:`_splice` copies the
#: untouched runs between edit points (memcpy speed, one Python step
#: per edit); below it one vectorized delete and insert per array is
#: faster.  Measured crossover: ~700 entries per edit point.
_SPLICE_RUN_ENTRIES = 512


def _splice(
    arrays: list[np.ndarray],
    del_pos: np.ndarray,
    ins_pos: np.ndarray,
    payloads: list[np.ndarray],
) -> list[np.ndarray]:
    """Delete and insert entries of parallel arrays, as new arrays.

    ``del_pos`` (sorted, unique) are positions to drop; ``payloads[j][i]``
    goes into ``arrays[j]`` just before old position ``ins_pos[i]``
    (sorted; equal positions keep payload order, and an insertion at a
    deleted position lands before it).  A long array with few edits is
    copied by the untouched runs between edit points, several times
    faster than a boolean-mask copy; a short one (a batch's touched
    rows) or one with many edits takes one vectorized delete and insert.
    """
    if arrays[0].size < _SPLICE_RUN_ENTRIES * (del_pos.size + ins_pos.size):
        at = ins_pos - np.searchsorted(del_pos, ins_pos)
        return [
            np.insert(np.delete(array, del_pos), at, payload)
            for array, payload in zip(arrays, payloads)
        ]
    pieces: list[list[np.ndarray]] = [[] for _ in arrays]
    deletions = del_pos.tolist()
    insertions = ins_pos.tolist()
    start = i = j = 0
    while i < len(deletions) or j < len(insertions):
        if j < len(insertions) and (i == len(deletions) or insertions[j] <= deletions[i]):
            cut = insertions[j]
            stop = j
            while stop < len(insertions) and insertions[stop] == cut:
                stop += 1
            for piece, array, payload in zip(pieces, arrays, payloads):
                piece.append(array[start:cut])
                piece.append(payload[j:stop])
            start, j = cut, stop
        else:
            cut = deletions[i]
            for piece, array in zip(pieces, arrays):
                piece.append(array[start:cut])
            start, i = cut + 1, i + 1
    for piece, array in zip(pieces, arrays):
        piece.append(array[start:])
    return [np.concatenate(piece) for piece in pieces]


def _patch_entries(
    indices: np.ndarray,
    weights: np.ndarray,
    del_pos: np.ndarray,
    ins_pos: np.ndarray,
    ins_cols: np.ndarray,
    ins_weights: np.ndarray,
    up_pos: np.ndarray,
    up_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Parallel entry arrays with a batch's edits applied, as new arrays.

    Positions are pre-edit, as :func:`_splice` takes them; ``up_pos``
    are reweighted entries.  Without insertions or deletions
    ``indices`` is returned as is and only ``weights`` is copied.
    """
    if del_pos.size == 0 and ins_pos.size == 0:
        weights = weights.copy()
        weights[up_pos] = up_weights
        return indices, weights
    indices, weights = _splice(
        [indices, weights], del_pos, ins_pos, [ins_cols, ins_weights]
    )
    # Updated entries moved by the edits before them.
    shift = np.searchsorted(ins_pos, up_pos, side="right") - np.searchsorted(
        del_pos, up_pos
    )
    weights[up_pos + shift] = up_weights
    return indices, weights


def apply_edge_batch(
    graph: CSRGraph,
    *,
    add: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None = None,
    remove: tuple[np.ndarray, np.ndarray] | None = None,
    count_change: bool = False,
) -> tuple:
    """Apply a batch of edge updates by *patching* the touched CSR rows.

    The streaming fast path: instead of the O(E log E) rebuild of
    :func:`from_edges`, each changed pair is found by a binary search
    inside its row (:func:`find_entries`), and the touched rows are
    gathered into one small copy that deletions, insertions and weight
    changes are spliced into.  :meth:`CSRGraph.replace_rows` appends the
    new rows to the row store the graph shares with its parent and
    patches the O(n) row arrays, so a batch of ``B`` updates costs
    O(B log B + B log d_max + touched rows + n) and copies no untouched
    row (save an occasional compaction, amortized over the batches
    that fill the store's slack).  No O(E) re-validation runs, and the
    old graph's cached values are patched forward — ``num_edges``
    counted, ``weighted_degrees`` re-summed on the touched rows only (in
    storage order, so bit-identical to a fresh ``bincount``), and
    ``total_weight`` patched from the batch when
    :attr:`CSRGraph.integral_weights` makes the sum exact (recomputed on
    first use otherwise).  ``vertex_of_edge`` is not patched on a
    structural change: the new graph rebuilds it on first use, so a
    caller that never reads it (a Louvain stream session under local
    screening) never pays for it.  The same holds for the flat
    ``indices``/``weights``: when the old graph has built them, the new
    graph splices its own from them on first read.

    Semantics (identical to :func:`update_edges`):

    * ``add=(u, v, w)`` inserts undirected edges (``w=None`` -> unit
      weights); adding an existing edge **sums** onto its weight, and
      duplicate pairs within the batch are merged first.
    * Endpoints must be integer vertex ids in ``[0, n)`` and weights
      finite; booleans, fractional ids and NaN/inf weights raise
      :class:`ValueError` before anything is patched.
    * ``remove=(u, v)`` deletes undirected edges entirely, whichever
      direction they are given in.  Removing an edge that does not exist
      raises :class:`ValueError`.  A pair that is both removed and added
      in the same batch ends up with exactly the added weight.

    Requires a canonical graph (sorted rows, no parallel stored entries
    — what :func:`from_edges` produces); raises otherwise.

    Returns ``(new_graph, du, dv, dw)`` where ``(du[i], dv[i])`` with
    ``du <= dv`` are the undirected pairs the batch touched and ``dw``
    the net stored-weight change of each — the delta-screening input of
    :mod:`repro.stream`.  ``count_change=True`` appends a fifth array:
    each pair's change in stored entries per direction (+1 inserted, -1
    deleted, 0 reweighted), which a stream session's carried
    contraction patches its entry counts by.
    """
    n = graph.num_vertices
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0, dtype=np.float64)

    akey, aw = (
        _canonical_batch_adds(add, n) if add is not None else (empty_i, empty_f)
    )
    rkey = _canonical_batch_removes(remove, n) if remove is not None else empty_i

    if akey.size == 0 and rkey.size == 0:
        return (graph, empty_i, empty_i, empty_f) + ((empty_i,) if count_change else ())

    if not graph.canonical:
        raise ValueError(
            "apply_edge_batch requires a canonical graph (rows sorted by "
            "neighbour, no parallel edges); build it with from_edges"
        )

    pairs = np.union1d(rkey, akey)  # sorted unique canonical keys
    plo = pairs // n
    phi = pairs % n
    loop = plo == phi
    # Every stored direction of every pair: (lo, hi), then (hi, lo) for
    # the non-loops; ``dpair`` maps a direction back to its pair.
    other = np.flatnonzero(~loop)
    drow = np.concatenate((plo, phi[other]))
    dcol = np.concatenate((phi, plo[other]))
    dpair = np.concatenate((np.arange(pairs.size), other))
    dpos, dfound = find_entries(graph, drow, dcol)

    exists = dfound[: pairs.size]
    cur_w = np.zeros(pairs.size, dtype=np.float64)
    cur_w[exists] = graph.row_weights[dpos[: pairs.size][exists]]

    removed = np.zeros(pairs.size, dtype=bool)
    if rkey.size:
        removed[np.searchsorted(pairs, rkey)] = True
    missing = removed & ~exists
    if missing.any():
        bad = int(pairs[missing][0])
        raise ValueError(
            f"cannot remove non-existent edge ({bad // n}, {bad % n})"
        )

    added = np.zeros(pairs.size, dtype=bool)
    addw = np.zeros(pairs.size, dtype=np.float64)
    if akey.size:
        ai = np.searchsorted(pairs, akey)
        added[ai] = True
        addw[ai] = aw

    new_w = np.where(removed, 0.0, cur_w) + addw
    dw = new_w - cur_w

    delete = exists & removed & ~added
    insert = ~exists  # removals of missing pairs already raised -> all added
    update = exists & ~delete

    upd = np.flatnonzero(update[dpair])
    dele = np.flatnonzero(delete[dpair])
    ins = np.flatnonzero(insert[dpair])

    # The touched rows, gathered back to back; ``local`` is each
    # direction's position in that copy.
    rows, row_of = np.unique(drow, return_inverse=True)
    old_lengths = graph.degrees[rows]
    pos, _ = graph.gather(rows)
    offset = np.cumsum(old_lengths) - old_lengths
    within = dpos - graph.row_start[drow]
    local = offset[row_of] + within
    del_local = np.sort(local[dele])
    # Insertions in storage order: by position, then row (a row end
    # and the next row's start share a position), then neighbour.
    ins = ins[np.lexsort((dcol[ins], drow[ins], local[ins]))]
    ins_local = local[ins]
    ins_cols = dcol[ins]
    ins_weights = new_w[dpair[ins]]
    up_local = local[upd]
    up_weights = new_w[dpair[upd]]
    row_cols, row_weights = _patch_entries(
        graph.row_indices[pos],
        graph.row_weights[pos],
        del_local,
        ins_local,
        ins_cols,
        ins_weights,
        up_local,
        up_weights,
    )
    lengths = (
        old_lengths
        - np.bincount(row_of[dele], minlength=rows.size)
        + np.bincount(row_of[ins], minlength=rows.size)
    )

    flat_patch = None
    if graph.cached("indices") is not None:
        # The old graph's flat arrays exist: the new graph splices its
        # own from them at memcpy speed, on its first whole-graph read.
        flat = graph.indptr[drow] + within
        flat_patch = functools.partial(
            _patch_entries,
            graph.indices,
            graph.weights,
            np.sort(flat[dele]),
            flat[ins],
            ins_cols,
            ins_weights,
            flat[upd],
            up_weights,
        )

    structural = dele.size > 0 or ins.size > 0
    num_edges = graph.cached("num_edges")
    if num_edges is not None:
        num_edges += int(np.count_nonzero(insert)) - int(np.count_nonzero(delete))
    weighted_degrees = graph.cached("weighted_degrees")
    if weighted_degrees is not None:
        # Re-sum the touched rows in storage order: bincount adds a row's
        # entries left to right, exactly as the whole-graph bincount does.
        weighted_degrees = weighted_degrees.copy()
        weighted_degrees[rows] = np.bincount(
            np.repeat(np.arange(rows.size), lengths),
            weights=row_weights,
            minlength=rows.size,
        )
    total_weight = integral = None
    if graph.integral_weights:
        kept = new_w[~delete]
        if np.all(kept == np.rint(kept)):
            # Every partial sum is an exact integer: patching the total
            # gives the value a fresh summation would.
            total = graph.total_weight + float(np.where(loop, dw, 2.0 * dw).sum())
            if total <= EXACT_SUM_LIMIT:
                total_weight, integral = total, True
        else:
            integral = False
    out = graph.replace_rows(
        rows,
        lengths,
        row_cols,
        row_weights,
        flat_patch=flat_patch,
        # The flat layout moves only when rows change length.
        indptr=None if structural else graph.cached("indptr"),
        vertex_of_edge=None if structural else graph.cached("vertex_of_edge"),
        num_edges=num_edges,
        weighted_degrees=weighted_degrees,
        total_weight=total_weight,
        canonical=True,
        integral_weights=integral,
    )
    if count_change:
        return out, plo, phi, dw, insert.astype(np.int64) - delete
    return out, plo, phi, dw


def update_edges(
    graph: CSRGraph,
    *,
    add: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None = None,
    remove: tuple[np.ndarray, np.ndarray] | None = None,
) -> CSRGraph:
    """Apply a batch of edge insertions/removals; returns a new graph.

    The dynamic-network-analytics workflow of the paper's introduction:
    stream updates in, then re-cluster (ideally warm-started from the
    previous membership, or incrementally via
    :class:`repro.stream.StreamSession`).  A thin wrapper over
    :func:`apply_edge_batch`, which patches the CSR arrays by row-local
    search and slice splicing instead of rebuilding in O(E log E).

    Parameters
    ----------
    add:
        ``(u, v, w)`` arrays of edges to insert (``w=None`` -> unit
        weights).  Adding an existing edge *sums* onto its weight;
        duplicate pairs within the batch are merged first.
    remove:
        ``(u, v)`` arrays of undirected edges to delete entirely,
        whichever direction each pair is given in.  Removing a
        non-existent edge raises :class:`ValueError`.
    """
    new_graph, _, _, _ = apply_edge_batch(graph, add=add, remove=remove)
    return new_graph


def ensure_connected_relabelled(graph: CSRGraph) -> CSRGraph:
    """Return the largest connected component as its own graph.

    Useful for generators that may leave isolated fragments; community
    detection results on fragments are uninteresting noise in benchmarks.
    """
    from scipy.sparse.csgraph import connected_components

    ncomp, labels = connected_components(graph.to_scipy(), directed=False)
    if ncomp <= 1:
        return graph
    counts = np.bincount(labels)
    keep = np.flatnonzero(labels == counts.argmax())
    return induced_subgraph(graph, keep)
