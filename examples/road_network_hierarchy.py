#!/usr/bin/env python
"""Hierarchical regions in a road network (the Figure-5 workload).

Road networks are the paper's long-tail case: many cheap hierarchy levels
that progressively merge blocks into districts into regions.  This example
clusters a road grid, then uses the dendrogram to extract a clustering at
a chosen granularity — the operation a map-rendering or routing pipeline
would perform.

Run:  python examples/road_network_hierarchy.py
"""

import numpy as np

from repro import gpu_louvain
from repro.core.hierarchy import Dendrogram, best_level
from repro.graph.generators import road_grid
from repro.obs.analyze import level_metrics
from repro.trace import RunReport, Tracer


def main() -> None:
    graph = road_grid(160, 160, rng=7)
    print(f"road network: {graph.num_vertices} intersections, "
          f"{graph.num_edges} road segments "
          f"(avg degree {2 * graph.num_edges / graph.num_vertices:.2f})")

    tracer = Tracer()
    result = gpu_louvain(graph, bin_vertex_limit=1_000, tracer=tracer)
    print(f"\nfull clustering: Q = {result.modularity:.4f}, "
          f"{result.num_levels} levels")

    # --- the Figure-5 stage profile (from the run's span tree) --------- #
    print("\nper-stage breakdown (optimization vs aggregation seconds):")
    rows = level_metrics(RunReport(spans=tracer.roots))
    for row in rows:
        print(f"  stage {row.level}: n={row.num_vertices:6d} "
              f"opt={row.optimization_seconds:.4f}s "
              f"agg={row.aggregation_seconds:.4f}s sweeps={row.sweeps}")
    opt = sum(row.optimization_seconds for row in rows)
    frac = opt / max(sum(row.total_seconds for row in rows), 1e-12)
    print(f"  optimization fraction: {frac:.2f} (paper reports ~0.70)")

    # --- pick a granularity from the hierarchy ------------------------- #
    dendrogram = Dendrogram.from_result(graph, result)
    counts = dendrogram.community_counts()
    print("\navailable granularities (communities per level):", counts)

    # "districts": the first level with fewer than 200 regions
    district_level = next(
        (k for k, c in enumerate(counts) if c < 200), len(counts) - 1
    )
    districts = dendrogram.membership(district_level)
    sizes = np.bincount(districts)
    print(f"\ndistrict view (level {district_level}): "
          f"{sizes.size} districts, "
          f"sizes {sizes.min()}..{sizes.max()} "
          f"(median {int(np.median(sizes))})")

    # --- best modularity cut -------------------------------------------- #
    level = best_level(graph, result)
    print(f"\nbest-modularity cut: level {level} "
          f"with Q = {dendrogram.modularities()[level]:.4f}")

    # Regions should be spatially contiguous: verify a sample district is
    # connected within the road graph.
    from repro.graph.build import induced_subgraph
    from scipy.sparse.csgraph import connected_components

    sample = int(np.argmax(sizes))
    members = np.flatnonzero(districts == sample)
    sub = induced_subgraph(graph, members)
    ncomp, _ = connected_components(sub.to_scipy(), directed=False)
    print(f"\nlargest district ({members.size} intersections) has "
          f"{ncomp} connected component(s)")


if __name__ == "__main__":
    main()
