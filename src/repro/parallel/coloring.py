"""Vectorized distance-1 graph coloring.

Lu et al. [16] use a coloring to split vertices into independent sets so
that one set can move in parallel without races; their comparator
implementation here (:mod:`repro.parallel.lu_openmp`) needs the same.

The original implementation was a pure-Python first-fit loop with a
``set`` per vertex — per-edge interpreter work that turned quadratic-ish
on the suite graphs.
This version is a deterministic Jones–Plassmann-style speculative
coloring, fully vectorized:

1. every uncolored vertex computes its *mex* (minimum excluded color)
   over already-colored neighbours from a per-vertex forbidden-color
   **bitmask** (``uint64`` words, OR-scattered from colored neighbour
   edges);
2. an uncolored vertex *commits* its tentative color unless an uncolored
   neighbour proposing the same color outranks it (deterministic
   splitmix64 hash priority, vertex id as tie-break);
3. committed colors are OR-ed into the remaining uncolored neighbours'
   bitmasks and the round repeats.

Hash priorities (rather than vertex ids) keep the expected round count
logarithmic even on path-like graphs, where id-priorities would ripple
one vertex per round.  The result is deterministic (no RNG state), a
valid distance-1 coloring, and uses at most ``max_degree + 1`` colors
(the mex bound) — but the concrete classes differ from the old
sequential first-fit order; the class-structure snapshots are pinned in
``tests/parallel/test_coloring.py``.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["greedy_coloring", "color_classes"]

#: splitmix64 multiplier constants (Steele et al.), used for the
#: deterministic per-vertex priorities.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _priorities(n: int) -> np.ndarray:
    """Deterministic pseudo-random ``uint64`` priority per vertex id."""
    x = (np.arange(n, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX_1
    x ^= x >> np.uint64(27)
    x *= _MIX_2
    x ^= x >> np.uint64(31)
    return x


def _mex_from_bitmask(forbidden: np.ndarray) -> np.ndarray:
    """Minimum excluded color per row of a ``(m, words)`` uint64 bitmask.

    Each row must have at least one zero bit (guaranteed when ``words``
    covers ``max_degree + 1`` colors: a vertex can forbid at most
    ``degree`` distinct colors).
    """
    inv = ~forbidden
    nonzero = inv != 0
    word = np.argmax(nonzero, axis=1)
    bits = inv[np.arange(inv.shape[0]), word]
    # Lowest set bit isolated; powers of two are exact in float64, so
    # log2 recovers the bit index exactly for all 64 positions.
    lsb = bits & (~bits + np.uint64(1))
    bit = np.log2(lsb.astype(np.float64)).astype(np.int64)
    return word.astype(np.int64) * 64 + bit


def greedy_coloring(graph: CSRGraph) -> np.ndarray:
    """Deterministic speculative greedy coloring, one color per vertex.

    Adjacent vertices always differ (a self-loop does not constrain its
    own vertex).  Uses at most ``max_degree + 1`` colors.  Deterministic
    for a given graph; see the module docstring for the algorithm.
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    src = graph.vertex_of_edge
    dst = graph.indices
    keep = src != dst  # self-loops never constrain their own vertex
    src = src[keep]
    dst = dst[keep]

    max_colors = int(graph.degrees.max(initial=0)) + 1
    words = (max_colors + 63) // 64
    forbidden = np.zeros((n, words), dtype=np.uint64)
    prio = _priorities(n)
    uncolored = np.ones(n, dtype=bool)
    # mex of an empty forbidden set is 0, so every vertex opens bidding
    # on color 0; later rounds only re-bid where the bitmask changed.
    tentative = np.zeros(n, dtype=np.int64)

    unc = np.arange(n, dtype=np.int64)
    while unc.size:
        # A vertex loses its proposal when an uncolored neighbour wants
        # the same color with a higher (priority, id) rank.
        same = tentative[src] == tentative[dst]
        s, d = src[same], dst[same]
        outranked = (prio[d] > prio[s]) | ((prio[d] == prio[s]) & (d > s))
        loses = np.zeros(n, dtype=bool)
        loses[s[outranked]] = True

        winners = unc[~loses[unc]]
        won = tentative[winners]
        colors[winners] = won
        uncolored[winners] = False
        unc = unc[loses[unc]]

        # Fold the committed colors into the still-uncolored neighbours'
        # forbidden bitmasks, then drop the winners' edges from the live
        # set — every remaining round only touches uncolored-uncolored
        # edges, so the per-round scan shrinks as the coloring fills in.
        win_mask = np.zeros(n, dtype=bool)
        win_mask[winners] = True
        sel = win_mask[src] & uncolored[dst]
        nbs = dst[sel]
        cols = colors[src[sel]].astype(np.uint64)
        if nbs.size:
            np.bitwise_or.at(
                forbidden,
                (nbs, (cols >> np.uint64(6)).astype(np.int64)),
                np.uint64(1) << (cols & np.uint64(63)),
            )
            # Every loser neighbours a winner proposing its color, so the
            # fold targets are exactly the vertices whose mex can change.
            dirty = np.unique(nbs)
            tentative[dirty] = _mex_from_bitmask(forbidden[dirty])
        live = uncolored[src] & uncolored[dst]
        src = src[live]
        dst = dst[live]
    return colors


def color_classes(colors: np.ndarray) -> list[np.ndarray]:
    """Vertices grouped by color, ascending color order."""
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size == 0:
        return []
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_colors[1:] != sorted_colors[:-1]))
    )
    return np.split(order, boundaries[1:])
