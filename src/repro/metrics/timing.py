"""Per-sweep counters of the modularity-optimization phase.

A Louvain run's wall-clock split (the per-level optimization vs
aggregation seconds of figures 5 and 6) lives in its span tree
(:mod:`repro.trace`); this module holds the one record the spans are
built from for each sweep, :class:`SweepStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SweepStats"]


@dataclass
class SweepStats:
    """Per-sweep observability record of one modularity-optimization sweep.

    Attributes
    ----------
    sweep:
        1-based sweep index within the phase.
    moves_per_bucket:
        Vertices moved by each degree bucket this sweep (parallel to the
        phase's bucket list; empty buckets report 0).
    gather_reuse_hits:
        Bucket edge-gathers served from the :class:`SweepPlan` cache this
        sweep instead of being rebuilt (0 on the first sweep and whenever
        no plan is active).
    pair_reuse_hits:
        Buckets whose cached sorted ``(vertex, community)`` pair
        structure was still valid this sweep (no destination vertex of
        the bucket had changed community), skipping the sort and
        segmented reduction entirely.
    pair_patch_hits:
        Buckets whose cached pair structure was patched in place from
        the moved destination vertices' edges instead of being rebuilt
        (only possible with integral edge weights, where float summation
        order cannot change the sums).
    q_incremental:
        Modularity after the sweep as tracked by the incremental update
        (equals the exact value when no incremental tracking is active).
    q_exact:
        Exact recomputed modularity, only set on sweeps where the
        periodic recompute ran (every ``exact_q_interval`` sweeps and at
        phase end).
    frontier_size:
        Number of vertices actually scored this sweep.  Equal to the
        graph's (non-isolated) vertex count for full sweeps; smaller for
        frontier-restricted sweeps in the streaming engine.
    """

    sweep: int
    moves_per_bucket: list[int] = field(default_factory=list)
    gather_reuse_hits: int = 0
    pair_reuse_hits: int = 0
    pair_patch_hits: int = 0
    q_incremental: float = 0.0
    q_exact: float | None = None
    frontier_size: int = 0

    @property
    def moved(self) -> int:
        """Total vertices moved this sweep."""
        return sum(self.moves_per_bucket)

    @property
    def q_drift(self) -> float | None:
        """|incremental - exact| modularity, where exact was recomputed."""
        if self.q_exact is None:
            return None
        return abs(self.q_incremental - self.q_exact)
