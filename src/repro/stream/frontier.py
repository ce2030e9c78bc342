"""Delta-screening: the affected-vertex frontier of an edge batch.

After a batch of edge insertions/deletions, only vertices whose
best-move inputs could have changed need re-scoring (Browet et al.'s
local-neighbourhood observation applied to the dynamic setting):

* the **endpoints** of every changed pair — their own rows changed;
* the **members of the endpoints' communities** — their community volume
  and internal weight changed;
* the **neighbours of the endpoints** — the gain of moving next to a
  changed vertex reads that vertex's (possibly changed) community
  totals.

The screen is a *seed*: the frontier optimizer expands it whenever a
committed move changes further community totals.  It is deliberately not
exactly sound — a batch changes the total weight ``2m``, which enters
every vertex's gain — so :class:`~repro.stream.StreamSession` offers
``screening="exact"`` (full first sweep) when bit-parity with a full
warm-started run is required.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["delta_frontier"]


def delta_frontier(
    graph: CSRGraph,
    membership: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    scope: str = "community",
) -> np.ndarray:
    """Seed frontier for a batch whose changed pairs are ``(u[i], v[i])``.

    ``graph`` is the *updated* graph; ``membership`` the pre-batch
    labelling (dense, ``0..n-1``).  Returns sorted unique vertex ids.

    ``scope="community"`` is the full screen described above.
    ``scope="endpoints"`` seeds only the changed pairs' endpoints: on
    graphs whose communities each hold a sizeable fraction of the
    vertices the community rule degenerates to the whole vertex set, and
    the optimizer's sweep expansion discovers the ripple-out instead.
    """
    if scope not in ("community", "endpoints"):
        raise ValueError(f"unknown frontier scope: {scope!r}")
    n = graph.num_vertices
    membership = np.asarray(membership, dtype=np.int64)
    if membership.shape != (n,):
        raise ValueError("membership must assign one label per vertex")
    ends = np.unique(np.concatenate([np.asarray(u), np.asarray(v)])).astype(np.int64)
    if ends.size == 0:
        return np.empty(0, dtype=np.int64)
    if int(ends[0]) < 0 or int(ends[-1]) >= n:
        raise ValueError("changed-pair endpoints out of range")
    if scope == "endpoints":
        return ends
    mask = np.zeros(n, dtype=bool)
    mask[ends] = True
    # Members of the endpoints' communities (volume / internal changed).
    comm_mask = np.zeros(n, dtype=bool)
    comm_mask[membership[ends]] = True
    mask |= comm_mask[membership]
    # Neighbours of the endpoints (their best-move inputs changed).
    pos, _ = graph.gather(ends)
    mask[graph.row_indices[pos]] = True
    return np.flatnonzero(mask)
