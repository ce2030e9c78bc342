"""Configuration of the GPU Louvain algorithm.

Defaults are the paper's choices throughout:

* degree buckets ``[1,4] [5,8] [9,16] [17,32] [33,84] [85,319] (319,inf)``
  with thread-group sizes ``4 8 16 32 | 32 | 128 128`` (sub-warp groups for
  the first four, one warp for the fifth, a 128-thread block for the last
  two; bucket 7 keeps its hash table in global memory);
* community buckets ``[1,127] [128,479] (479,inf)`` for the aggregation
  phase (warp / shared block / global block);
* thresholds ``t_bin = 1e-2`` while the level graph has more than 100 000
  vertices and ``t_final = 1e-6`` below — the pair Section 5 settles on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.costmodel import CostParameters
from ..gpu.device import DeviceSpec, TESLA_K40M

__all__ = ["GPULouvainConfig", "DEGREE_BUCKETS", "GROUP_SIZES", "COMMUNITY_BUCKETS"]

#: Upper degree bound (inclusive) of buckets 1..6; bucket 7 is unbounded.
DEGREE_BUCKETS: tuple[int, ...] = (4, 8, 16, 32, 84, 319)

#: Threads assigned per vertex in buckets 1..7.
GROUP_SIZES: tuple[int, ...] = (4, 8, 16, 32, 32, 128, 128)

#: Upper bound (inclusive) on summed member degree of community buckets 1..2;
#: bucket 3 is unbounded.
COMMUNITY_BUCKETS: tuple[int, ...] = (127, 479)


@dataclass(frozen=True)
class GPULouvainConfig:
    """All tunables of :func:`repro.core.gpu_louvain.gpu_louvain`.

    Attributes
    ----------
    degree_bucket_bounds:
        Inclusive upper degree bound per bucket (last bucket unbounded).
    group_sizes:
        Threads per vertex for each degree bucket (parallel to bounds + 1).
    community_bucket_bounds:
        Inclusive upper summed-degree bound per aggregation bucket.
    threshold_bin / threshold_final / bin_vertex_limit:
        Adaptive thresholds: use ``threshold_bin`` per sweep while the
        level's graph has more than ``bin_vertex_limit`` vertices.  The
        default 100_000 is the paper's full-scale choice; the benchmark
        runner (:func:`repro.bench.runner.run_gpu`) deliberately scales
        it down to 1_000 for the ~1000x-smaller analog suite (DESIGN.md
        §2 documents the divergence).
    exact_q_interval:
        Sweeps between exact modularity recomputes.  The vectorized
        engine caches each bucket's edge gather for the whole phase (a
        :class:`~repro.core.sweep_plan.SweepPlan`) and tracks modularity
        incrementally from committed moves; the recompute bounds float
        drift, and the final reported Q always comes from an exact
        recompute.  The simulated engine and the relaxed ablation
        recompute Q exactly after every sweep.
    relaxed_updates:
        Ablation switch (Section 5): commit moves only at the end of each
        full sweep instead of after every bucket.
    singleton_constraint:
        The Lu-et-al. rule preventing neighbouring singletons from swapping.
    engine:
        ``"vectorized"`` (NumPy data-parallel, fast) or ``"simulated"``
        (thread-level replay with hash tables + cost model, slow, profiled).
    resolution:
        Reichardt-Bornholdt resolution parameter gamma of the generalised
        modularity (> 1: more, smaller communities; < 1: coarser).  The
        default 1.0 is the paper's Eq. (1); see also the resolution-limit
        discussion the paper cites [11].
    threshold_schedule:
        Optional generalisation the paper's Section 6 suggests ("expanded
        further to include even more threshold values for varying sizes
        of graphs"): ``((min_vertices, threshold), ...)`` pairs, sorted by
        descending ``min_vertices``; the first pair whose ``min_vertices``
        the level's graph exceeds wins, else ``threshold_final``.  When
        set, it replaces the two-value t_bin/t_final scheme.
    """

    degree_bucket_bounds: tuple[int, ...] = DEGREE_BUCKETS
    group_sizes: tuple[int, ...] = GROUP_SIZES
    community_bucket_bounds: tuple[int, ...] = COMMUNITY_BUCKETS
    threshold_bin: float = 1e-2
    threshold_final: float = 1e-6
    bin_vertex_limit: int = 100_000
    max_sweeps_per_level: int = 1000
    max_levels: int = 200
    relaxed_updates: bool = False
    singleton_constraint: bool = True
    engine: str = "vectorized"
    exact_q_interval: int = 16
    device: DeviceSpec = TESLA_K40M
    cost_parameters: CostParameters = field(default_factory=CostParameters)
    threshold_schedule: tuple[tuple[int, float], ...] | None = None
    resolution: float = 1.0

    def __post_init__(self) -> None:
        if len(self.group_sizes) != len(self.degree_bucket_bounds) + 1:
            raise ValueError("need one group size per degree bucket")
        if any(b <= 0 for b in self.degree_bucket_bounds):
            raise ValueError("degree bucket bounds must be positive")
        if list(self.degree_bucket_bounds) != sorted(set(self.degree_bucket_bounds)):
            raise ValueError("degree bucket bounds must be strictly increasing")
        if list(self.community_bucket_bounds) != sorted(
            set(self.community_bucket_bounds)
        ):
            raise ValueError("community bucket bounds must be strictly increasing")
        if self.engine not in ("vectorized", "simulated"):
            raise ValueError("engine must be 'vectorized' or 'simulated'")
        if self.threshold_bin < self.threshold_final:
            raise ValueError("threshold_bin should not be below threshold_final")
        if self.threshold_schedule is not None:
            limits = [limit for limit, _ in self.threshold_schedule]
            if limits != sorted(limits, reverse=True) or len(set(limits)) != len(limits):
                raise ValueError(
                    "threshold_schedule must have strictly decreasing vertex limits"
                )
            if any(limit < 0 or t <= 0 for limit, t in self.threshold_schedule):
                raise ValueError("threshold_schedule entries must be positive")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.exact_q_interval < 1:
            raise ValueError("exact_q_interval must be at least 1")

    @property
    def num_degree_buckets(self) -> int:
        """Number of degree buckets (paper: 7)."""
        return len(self.degree_bucket_bounds) + 1

    @property
    def num_community_buckets(self) -> int:
        """Number of aggregation buckets (paper: 3)."""
        return len(self.community_bucket_bounds) + 1

    def threshold_for(self, num_vertices: int) -> float:
        """Per-sweep threshold for a level graph of ``num_vertices``.

        With a ``threshold_schedule``, the first entry whose vertex limit
        the graph exceeds wins; otherwise the paper's two-value scheme.
        """
        if self.threshold_schedule is not None:
            for limit, threshold in self.threshold_schedule:
                if num_vertices > limit:
                    return threshold
            return self.threshold_final
        if num_vertices > self.bin_vertex_limit:
            return self.threshold_bin
        return self.threshold_final
