"""Table 1 + Figure 3: the full 55-graph suite, sequential vs GPU engine.

Paper: sequential runtimes 2.27-934 s, GPU runtimes 0.15-26.1 s, speedups
2.7-312x (average 41.7x, Figure 3).  Here the analog suite is ~200-4000x
smaller and the contrast is NumPy-data-parallel vs interpreted-sequential
(DESIGN.md §6); the *shape* to check is that every graph speeds up, that
skew-degree and mesh graphs gain most, and that modularity stays within
~2% of sequential (the Table-1 claim pattern).

Both solvers' runs are traced (:func:`repro.bench.runner.table1_rows`),
so their seconds include the tracing; the emitted per-level reports are
those runs' span trees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import banner, format_table, geometric_mean
from repro.bench.runner import run_gpu, table1_rows
from repro.bench.suite import SUITE, load_suite_graph
from repro.trace import report_from_result

from _util import emit, emit_report


@pytest.fixture(scope="module")
def rows():
    return table1_rows(SUITE)


def test_table1_reproduction(benchmark, rows):
    """Regenerate Table 1 (and the Figure-3 speedup series)."""
    # The benchmarked kernel: the GPU engine on a representative graph.
    graph = load_suite_graph("soc-LiveJournal1")
    benchmark.pedantic(
        lambda: run_gpu(graph), rounds=3, iterations=1, warmup_rounds=1
    )

    table = format_table(
        [
            "graph",
            "n",
            "E",
            "seq s",
            "gpu s",
            "speedup",
            "paper speedup",
            "relQ",
        ],
        [
            [
                r.entry.name,
                r.num_vertices,
                r.num_edges,
                r.seq_seconds,
                r.gpu_seconds,
                r.speedup,
                r.entry.paper_speedup,
                r.relative_modularity,
            ]
            for r in rows
        ],
    )
    speedups = [r.speedup for r in rows]
    rel_mods = [r.relative_modularity for r in rows]
    summary = (
        f"speedup: min={min(speedups):.2f} max={max(speedups):.2f} "
        f"mean={np.mean(speedups):.2f} geomean={geometric_mean(speedups):.2f}\n"
        f"paper:   min=2.7 max=312 mean=41.7 (K40m vs Xeon i5-6600)\n"
        f"relative modularity: mean={np.mean(rel_mods):.4f} "
        f"min={min(rel_mods):.4f} (paper: avg > 0.99, never < 0.98)"
    )
    emit("table1_fig3", banner("Table 1 / Figure 3 reproduction") + "\n" + table + "\n\n" + summary)

    reports = [
        report_from_result(
            result,
            spans=spans,
            kind="run",
            graph=r.entry.name,
            engine=engine,
            solver=solver,
            num_vertices=r.num_vertices,
            num_edges=r.num_edges,
            seconds=round(seconds, 6),
        )
        for r in rows
        for solver, engine, result, spans, seconds in (
            ("gpu", "vectorized", r.gpu_result, r.gpu_spans, r.gpu_seconds),
            ("seq", "seq", r.seq_result, r.seq_spans, r.seq_seconds),
        )
        if result is not None
    ]
    emit_report("table1_fig3", reports, trajectory=True)

    assert all(s > 1.0 for s in speedups[:20]) or np.mean(speedups) > 2.0
    assert np.mean(rel_mods) > 0.97
