"""The paper's contribution: degree-bucketed, edge-parallel GPU Louvain."""

from .aggregate import (
    AggregationOutcome,
    LabelContraction,
    aggregate_bincount,
    aggregate_gpu,
)
from .buckets import Bucket, bucket_index, community_buckets, degree_buckets
from .compute_move import (
    compute_moves_simulated,
    compute_moves_vectorized,
    segment_sort_order,
)
from .config import COMMUNITY_BUCKETS, DEGREE_BUCKETS, GROUP_SIZES, GPULouvainConfig
from .engine import (
    ALGO_NAMES,
    Engine,
    LabelPropagationEngine,
    LeidenEngine,
    LouvainEngine,
    SolverEngine,
    get_engine,
)
from .gpu_louvain import GPULouvainResult, gpu_louvain
from .hierarchy import Dendrogram, best_level, cut_at_level
from .label_prop import LabelPropagationResult, label_propagation
from .mod_opt import (
    FrontierOutcome,
    OptimizationOutcome,
    frontier_modularity_optimization,
    modularity_optimization,
)
from .refine import RefinementOutcome, connected_refinement, count_disconnected
from .sweep_plan import BucketPlan, SweepPlan

__all__ = [
    "gpu_louvain",
    "GPULouvainResult",
    "GPULouvainConfig",
    "Engine",
    "LouvainEngine",
    "LeidenEngine",
    "LabelPropagationEngine",
    "SolverEngine",
    "get_engine",
    "ALGO_NAMES",
    "label_propagation",
    "LabelPropagationResult",
    "connected_refinement",
    "RefinementOutcome",
    "count_disconnected",
    "DEGREE_BUCKETS",
    "GROUP_SIZES",
    "COMMUNITY_BUCKETS",
    "modularity_optimization",
    "OptimizationOutcome",
    "frontier_modularity_optimization",
    "FrontierOutcome",
    "aggregate_gpu",
    "aggregate_bincount",
    "AggregationOutcome",
    "LabelContraction",
    "compute_moves_vectorized",
    "compute_moves_simulated",
    "segment_sort_order",
    "SweepPlan",
    "BucketPlan",
    "Bucket",
    "bucket_index",
    "degree_buckets",
    "community_buckets",
    "Dendrogram",
    "cut_at_level",
    "best_level",
]
