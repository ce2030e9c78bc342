"""Scaling study: the speedup trend with graph size.

Not a single paper figure, but the pattern underlying Table 1: the paper's
largest speedups come from its largest graphs (the GPU amortises fixed
overheads and fills the device), while its smallest graphs gain least.
The same mechanism exists in this reproduction (NumPy amortises dispatch
overhead over array length), so the speedup of the data-parallel engine
over the interpreted baseline must *grow with scale* — evidence that the
measured Table-1 factors are substrate-limited, not algorithm-limited.

Both solvers' runs are traced (their per-level reports are emitted), so
their seconds include the tracing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import banner, format_table
from repro.bench.runner import run_gpu, run_sequential
from repro.bench.suite import suite_entry
from repro.trace import Tracer, report_from_result

from _util import emit, emit_report

GRAPH_NAMES = ("com-youtube", "italy_osm", "rgg_n_2_22_s0")
SCALES = (0.25, 0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def scaling_rows():
    rows = []
    reports = []
    for name in GRAPH_NAMES:
        entry = suite_entry(name)
        for scale in SCALES:
            graph = entry.load(scale)
            seq_tracer, gpu_tracer = Tracer(), Tracer()
            seq = run_sequential(graph, tracer=seq_tracer)
            gpu = run_gpu(graph, tracer=gpu_tracer)
            rows.append(
                (
                    name,
                    scale,
                    graph.num_vertices,
                    graph.num_edges,
                    seq.seconds,
                    gpu.seconds,
                    seq.seconds / gpu.seconds,
                )
            )
            for run, engine, tracer in (
                (seq, "seq", seq_tracer),
                (gpu, "vectorized", gpu_tracer),
            ):
                reports.append(
                    report_from_result(
                        run.result,
                        tracer=tracer,
                        kind="run",
                        graph=name,
                        engine=engine,
                        solver=run.name,
                        scale=scale,
                        num_vertices=graph.num_vertices,
                        num_edges=graph.num_edges,
                        seconds=round(run.seconds, 6),
                    )
                )
    return rows, reports


def test_speedup_grows_with_scale(benchmark, scaling_rows):
    rows, reports = scaling_rows
    graph = suite_entry(GRAPH_NAMES[0]).load(1.0)
    benchmark.pedantic(lambda: run_gpu(graph), rounds=2, iterations=1)

    table = format_table(
        ["graph", "scale", "n", "E", "seq s", "gpu s", "speedup"],
        [list(r) for r in rows],
    )
    trends = []
    for name in GRAPH_NAMES:
        series = [r[6] for r in rows if r[0] == name]
        trends.append(series[-1] / series[0])
    summary = (
        "speedup(scale=2) / speedup(scale=0.25) per graph: "
        + ", ".join(f"{t:.2f}x" for t in trends)
        + "\n(the paper's Table-1 pattern: larger graphs -> larger speedups)"
    )
    emit("scaling_study", banner("Scaling study") + "\n" + table + "\n\n" + summary)
    emit_report("scaling_study", reports, trajectory=True)

    # The trend must be positive on average and for most graphs.
    assert np.mean(trends) > 1.3
    assert sum(1 for t in trends if t > 1.0) >= 2
