"""Quality, modularity, per-sweep and throughput metrics."""

from .modularity import (
    community_internal_weights,
    community_volumes,
    modularity,
    move_gain,
    vertex_to_community_weights,
)
from .partition_measures import (
    conductance,
    coverage,
    performance,
    worst_conductance,
)
from .quality import (
    PartitionStats,
    adjusted_rand_index,
    community_sizes,
    normalized_mutual_information,
    normalize_labels,
    num_communities,
    partition_stats,
)
from .teps import TepsResult, teps
from .timing import SweepStats

__all__ = [
    "modularity",
    "move_gain",
    "community_volumes",
    "community_internal_weights",
    "vertex_to_community_weights",
    "coverage",
    "performance",
    "conductance",
    "worst_conductance",
    "normalize_labels",
    "community_sizes",
    "num_communities",
    "normalized_mutual_information",
    "adjusted_rand_index",
    "PartitionStats",
    "partition_stats",
    "TepsResult",
    "teps",
    "SweepStats",
]
