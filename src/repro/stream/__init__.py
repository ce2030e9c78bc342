"""Streaming subsystem: incremental Louvain over edge-batch updates.

The dynamic-network-analytics workload the paper's introduction motivates
("input data changes continuously"): a :class:`StreamSession` holds the
current graph and clustering, ingests batches of edge insertions and
deletions, patches the CSR arrays in place of a rebuild
(:func:`repro.graph.build.apply_edge_batch`), screens the affected-vertex
frontier (:func:`delta_frontier`) and re-optimizes only that frontier
(:func:`repro.core.frontier_modularity_optimization`), warm-started from
the previous membership.
"""

from ..result import StreamResult
from .frontier import delta_frontier
from .session import PartitionView, StreamConfig, StreamSession

__all__ = [
    "StreamSession",
    "StreamConfig",
    "StreamResult",
    "PartitionView",
    "delta_frontier",
]
