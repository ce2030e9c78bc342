"""Figures 5 and 6: per-stage time breakdown (optimization vs aggregation).

Paper, Figure 5 (road_usa): the first stage dominates, followed by a long
tail of cheap stages; ~70% of total time is modularity optimization and
~30% aggregation.  Figure 6 (nlpkkt200): the first stages barely shrink
the graph, then one expensive mid-hierarchy optimization phase appears
before the size collapses — behaviour the paper attributes to graphs
without a natural initial community structure (also seen on channel-500).

The per-level seconds are read from the run's span tree
(:func:`repro.obs.analyze.level_metrics`): the measured runs are traced,
so their seconds include the tracing.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import banner, format_table
from repro.bench.runner import run_gpu
from repro.bench.suite import load_suite_graph
from repro.obs.analyze import level_metrics
from repro.trace import RunReport, Tracer

from _util import emit


def _traced_levels(graph):
    """One traced GPU run's per-level metrics (every recorded level span)."""
    tracer = Tracer()
    run_gpu(graph, tracer=tracer)
    return level_metrics(RunReport(spans=tracer.roots))


def _optimization_fraction(rows) -> float:
    total = sum(r.total_seconds for r in rows)
    return sum(r.optimization_seconds for r in rows) / total if total > 0 else 0.0


def _render(rows) -> str:
    table = format_table(
        ["stage", "n", "E", "opt s", "agg s", "sweeps", "Q"],
        [
            [r.level, r.num_vertices, r.num_edges, r.optimization_seconds,
             r.aggregation_seconds, r.sweeps,
             "-" if r.modularity is None else r.modularity]
            for r in rows
        ],
        floatfmt=".4f",
    )
    frac = _optimization_fraction(rows)
    return f"{table}\noptimization fraction: {frac:.2f} (paper: ~0.70)"


def test_fig5_road_usa(benchmark):
    graph = load_suite_graph("road_usa")
    rows = benchmark.pedantic(lambda: _traced_levels(graph), rounds=2, iterations=1)
    text = _render(rows)
    emit("fig5_road_usa", banner("Figure 5: road_usa stage breakdown") + "\n" + text)

    # The typical shape: an expensive first stage and a tail of stages.
    assert len(rows) >= 4
    first = rows[0].optimization_seconds + rows[0].aggregation_seconds
    tail = sum(r.optimization_seconds + r.aggregation_seconds for r in rows[2:])
    assert first > 0
    assert rows[0].num_vertices > rows[-1].num_vertices  # hierarchy shrinks


def test_fig6_nlpkkt200(benchmark):
    graph = load_suite_graph("nlpkkt200")
    rows = benchmark.pedantic(lambda: _traced_levels(graph), rounds=2, iterations=1)
    text = _render(rows)
    emit("fig6_nlpkkt200", banner("Figure 6: nlpkkt200 stage breakdown") + "\n" + text)

    # The Figure-6 hallmark at this scale: unlike the road-network's
    # 1-3-sweep tail stages, the kkt hierarchy keeps needing long
    # optimization phases after the first contraction (the paper's
    # "time consuming modularity optimization phase" mid-hierarchy,
    # before the size finally collapses).
    assert len(rows) >= 2
    assert max(r.sweeps for r in rows[1:]) >= 5


def test_optimization_dominates_aggregation(benchmark):
    """Across classes, optimization takes the larger share (paper ~70/30)."""
    fractions = []
    for name in ("road_usa", "com-youtube", "nlpkkt120", "rgg_n_2_22_s0"):
        fractions.append(_optimization_fraction(_traced_levels(load_suite_graph(name))))
    benchmark.pedantic(
        lambda: run_gpu(load_suite_graph("com-youtube")), rounds=2, iterations=1
    )
    emit(
        "fig5_fig6_opt_fraction",
        "mean optimization fraction over 4 classes: "
        f"{np.mean(fractions):.2f} (paper: ~0.70)",
    )
    assert np.mean(fractions) > 0.5
