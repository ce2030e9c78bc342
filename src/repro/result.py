"""Result types shared by every Louvain solver in this repository.

All solvers (sequential baseline, GPU engines, comparators) return a
:class:`LouvainResult` so benchmarks can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics.timing import SweepStats

__all__ = ["LouvainResult", "StreamResult", "flatten_levels"]


def flatten_levels(levels: list[np.ndarray]) -> np.ndarray:
    """Compose per-level partitions into original-vertex -> final community.

    ``levels[k]`` maps the vertices of the level-``k`` graph to the vertex
    ids of the level-``k+1`` graph (dense labels).  The composition maps
    each original vertex to its community in the last level.
    """
    if not levels:
        raise ValueError("need at least one level")
    membership = np.asarray(levels[0], dtype=np.int64).copy()
    for level in levels[1:]:
        membership = np.asarray(level, dtype=np.int64)[membership]
    return membership


@dataclass
class LouvainResult:
    """Outcome of one Louvain run (any solver).

    Attributes
    ----------
    levels:
        ``levels[k]`` assigns every vertex of the level-``k`` graph the
        *dense* id of its community, which is that community's vertex id in
        the level-``k+1`` graph.
    level_sizes:
        ``(num_vertices, num_edges)`` of each level's input graph.
    membership:
        Flat clustering: original vertex -> final community (dense labels).
    modularity:
        Modularity of ``membership`` on the original graph.
    modularity_per_level:
        Modularity after each stage completed.
    sweeps_per_level:
        Number of modularity-optimization sweeps each stage ran.
    sweep_stats:
        ``sweep_stats[k]`` holds one :class:`~repro.metrics.timing.SweepStats`
        per optimization sweep of level ``k``.  Filled by the engines
        built on :mod:`repro.core.mod_opt` and by label propagation; the
        reference solvers leave it empty.  Per-level seconds are not
        part of the result: they live in the run's span tree
        (:mod:`repro.trace`).
    """

    levels: list[np.ndarray]
    level_sizes: list[tuple[int, int]]
    membership: np.ndarray
    modularity: float
    modularity_per_level: list[float] = field(default_factory=list)
    sweeps_per_level: list[int] = field(default_factory=list)
    sweep_stats: list[list[SweepStats]] = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        """Number of stages (levels of the hierarchy) executed."""
        return len(self.levels)

    @property
    def num_communities(self) -> int:
        """Number of communities in the final flat clustering."""
        return int(np.unique(self.membership).size) if self.membership.size else 0

    def membership_at_level(self, level: int) -> np.ndarray:
        """Flat clustering truncated after ``level + 1`` stages."""
        if not 0 <= level < len(self.levels):
            raise IndexError(f"level {level} out of range")
        return flatten_levels(self.levels[: level + 1])


@dataclass
class StreamResult(LouvainResult):
    """Outcome of one :class:`~repro.stream.StreamSession` batch.

    Extends :class:`LouvainResult` with per-batch streaming telemetry.

    Attributes
    ----------
    batch:
        1-based index of the batch within the session.
    edges_added / edges_removed:
        Undirected edge counts actually inserted / deleted (after
        canonicalisation and duplicate merging).
    pairs_changed:
        Distinct vertex pairs whose stored weight changed.
    frontier_size:
        Seed frontier size handed to delta-screening (before sweep
        expansion; degree-0 vertices dropped).
    frontier_fraction:
        ``frontier_size / num_vertices`` of the updated graph.
    mode:
        ``"stream"`` (incremental path), ``"full"`` (full warm re-run —
        frontier too wide or screening forced it), or ``"stream+full"``
        (incremental path plus the periodic exact full re-run).
    full_rerun:
        Whether a full warm-started run executed for this batch.
    q_full:
        Modularity of the full run when one executed (else ``None``).
    nmi_vs_full:
        NMI between the streamed and full memberships when both ran.
    seconds:
        Wall-clock time of the whole ``apply`` call.
    """

    batch: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    pairs_changed: int = 0
    frontier_size: int = 0
    frontier_fraction: float = 0.0
    mode: str = "stream"
    full_rerun: bool = False
    q_full: float | None = None
    nmi_vs_full: float | None = None
    seconds: float = 0.0
