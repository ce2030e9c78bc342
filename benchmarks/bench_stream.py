"""Streaming subsystem: incremental vs. cold re-clustering on edge batches.

Each case replays ``BATCHES`` random update batches (~0.5% edge churn,
one fifth deletions) through a :class:`~repro.stream.StreamSession`
(``screening="local"``, ``frontier_scope="endpoints"`` — both suite
graphs hold a handful of giant communities, where the community screen
degenerates to the full vertex set) and, after every batch, re-clusters
the updated graph cold with :func:`~repro.core.gpu_louvain.gpu_louvain`
for comparison (min of ``COLD_ROUNDS`` runs).

Acceptance:

* the incremental path is >= ``MIN_SPEEDUP`` x faster than cold
  (median over batches, per graph);
* the streamed partition agrees with cold — NMI >= 0.95, *except* where
  the cold solution itself is unstable: when consecutive cold runs on
  0.5%-churned graphs agree less than that (solution degeneracy, e.g.
  nlpkkt200's near-tied partitions), the bar is that instability
  ceiling, or the streamed Q must match/beat cold's;
* every reported Q is an exact recompute on the updated graph
  (drift <= 1e-9) — speed never hides quality.

Writes ``benchmarks/results/bench_stream.json`` (uploaded as a CI
artifact) plus the usual text table.  Each session's spans are also
journaled into ``benchmarks/results/flight`` (``_util.flight_journal``,
trace id ``stream-<graph>-<algo>``), where CI's failure bundle reads
them; the streamed seconds include that tracing.

Set ``BENCH_STREAM_ALGO=leiden`` (or ``lpa``) to replay the same
scenario through another :mod:`repro.core.engine` algorithm; the
results land in ``bench_stream_<algo>.*`` so the default louvain
artifacts (and the committed baselines keyed on them) stay untouched.
With ``leiden``, the nlpkkt200 case additionally gates on
``nmi_vs_full`` >= ``MIN_NMI_VS_FULL`` — the streaming-degeneracy
acceptance number (the audit-semantics agreement with a warm full run,
which the pre-engine sessions could not hold through churn).
"""

from __future__ import annotations

import json
import os
from time import perf_counter

import numpy as np
import pytest

from repro.bench.reporting import banner, format_table
from repro.bench.suite import SUITE
from repro.core.engine import ALGO_NAMES, get_engine
from repro.core.gpu_louvain import gpu_louvain
from repro.metrics.modularity import modularity
from repro.metrics.quality import normalized_mutual_information
from repro.stream import StreamConfig, StreamSession
from repro.trace import Tracer

from _util import RESULTS_DIR, emit, emit_report, flight_journal

#: The suite's two largest graphs by paper edge count.
CASES = (
    ("uk-2002", 5.0),
    ("nlpkkt200", 2.0),
)

BATCHES = 4
CHURN = 0.005  # fraction of edges changed per batch (<= 1% per ISSUE)
REMOVE_FRACTION = 0.2
COLD_ROUNDS = 2

#: Detection algorithm for the sessions (see repro.core.engine).
ALGO = os.environ.get("BENCH_STREAM_ALGO", "louvain")
if ALGO not in ALGO_NAMES:  # pragma: no cover - operator error
    raise SystemExit(f"BENCH_STREAM_ALGO must be one of {list(ALGO_NAMES)}")

#: Result-file stem: the default algo keeps the historical names.
STEM = "bench_stream" if ALGO == "louvain" else f"bench_stream_{ALGO}"

#: Acceptance bar: median incremental speedup vs cold re-clustering.
#: Leiden/lpa batches pay for refinement audits (or extra sweeps) that
#: plain louvain skips, so their bar is lower — their acceptance story
#: is the quality gate below, not raw speed.
MIN_SPEEDUP = 5.0 if ALGO == "louvain" else 2.0
MIN_NMI = 0.95
#: Acceptance bar (leiden, nlpkkt200): agreement with a warm full run.
MIN_NMI_VS_FULL = 0.85


def _random_batch(graph, count: int, rng: np.random.Generator):
    """~80% random insertions, ~20% deletions of existing edges."""
    num_remove = int(count * REMOVE_FRACTION)
    num_add = count - num_remove
    n = graph.num_vertices
    au = rng.integers(0, n, num_add)
    av = (au + rng.integers(1, n, num_add)) % n
    eu, ev, _ = graph.edge_list()
    not_loop = eu != ev
    eu, ev = eu[not_loop], ev[not_loop]
    pick = rng.choice(eu.size, size=min(num_remove, eu.size), replace=False)
    return (au, av, None), (eu[pick], ev[pick])


def stream_case(name, graph, recorder, *, scale=1.0, batches=BATCHES):
    """One graph's churn replay; its session's spans go to ``recorder``."""
    rng = np.random.default_rng(7)
    config = StreamConfig(algo=ALGO, screening="local", frontier_scope="endpoints")
    tracer = Tracer(flight=recorder, trace_id=f"stream-{name}-{ALGO}")
    session = StreamSession(graph, config, tracer=tracer)
    engine = get_engine(ALGO)
    prev_cold = session.result  # cold-equivalent baseline partition
    per_batch = []
    batch_edges = max(1, int(graph.num_edges * CHURN))
    for _ in range(batches):
        add, remove = _random_batch(session.graph, batch_edges, rng)
        before = session.membership.copy()
        result = session.apply(add=add, remove=remove)

        cold_seconds = np.inf
        cold = None
        for _ in range(COLD_ROUNDS):
            start = perf_counter()
            cold = gpu_louvain(session.graph)
            cold_seconds = min(cold_seconds, perf_counter() - start)

        # The audit comparison: a warm full run of the session's own
        # algorithm from the pre-batch membership (the same semantics
        # full_rerun_interval gates on).
        full = engine.detect(session.graph, config.louvain, initial_communities=before)
        nmi_vs_full = normalized_mutual_information(result.membership, full.membership)

        nmi = normalized_mutual_information(result.membership, cold.membership)
        # How much do *cold* solutions drift across one batch of the same
        # churn?  Below this, stream-vs-cold NMI is meaningless.
        stability = normalized_mutual_information(
            cold.membership, prev_cold.membership
        )
        prev_cold = cold
        q_check = modularity(session.graph, result.membership)
        per_batch.append(
            {
                "batch": result.batch,
                "mode": result.mode,
                "edges_added": result.edges_added,
                "edges_removed": result.edges_removed,
                "frontier_size": result.frontier_size,
                "frontier_fraction": result.frontier_fraction,
                "sweeps": sum(result.sweeps_per_level),
                "stream_seconds": result.seconds,
                "cold_seconds": cold_seconds,
                "speedup": cold_seconds / max(result.seconds, 1e-12),
                "q_stream": result.modularity,
                "q_cold": cold.modularity,
                "q_drift": abs(result.modularity - q_check),
                "nmi_vs_full": nmi_vs_full,
                "nmi_vs_cold": nmi,
                "cold_stability_nmi": stability,
            }
        )
    return {
        "graph": name,
        "scale": scale,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "batch_edges": batch_edges,
        "churn": CHURN,
        "batches": per_batch,
        # repro.trace RunReports (initial run + one per batch); popped
        # before the JSON dump, emitted as <name>.trace.json.
        "_trace": [session.initial_report, *session.reports],
    }


@pytest.fixture(scope="module")
def measurements():
    with flight_journal() as recorder:
        return [
            stream_case(
                name,
                next(e for e in SUITE if e.name == name).load(scale),
                recorder,
                scale=scale,
            )
            for name, scale in CASES
        ]


def test_stream_quality(measurements):
    """No silent drift; partition agreement modulo cold-run degeneracy."""
    for case in measurements:
        for row in case["batches"]:
            assert row["q_drift"] <= 1e-9, (case["graph"], row["batch"])
            bar = min(MIN_NMI, row["cold_stability_nmi"])
            agrees = row["nmi_vs_cold"] >= bar - 1e-12
            as_good = row["q_stream"] >= row["q_cold"] - 1e-12
            assert agrees or as_good, (case["graph"], row)


def test_leiden_agrees_with_warm_full_run(measurements):
    """The streaming-degeneracy acceptance gate (BENCH_STREAM_ALGO=leiden).

    nmi_vs_cold on nlpkkt200 is bounded by cold-solver degeneracy
    (cold runs disagree with *each other* at ~0.6); the well-posed
    quality number is agreement with a warm full run — the audit
    semantics.  Leiden must hold it >= MIN_NMI_VS_FULL through churn.
    """
    if ALGO != "leiden":
        pytest.skip("gate applies to BENCH_STREAM_ALGO=leiden runs")
    case = next(c for c in measurements if c["graph"] == "nlpkkt200")
    for row in case["batches"]:
        assert row["nmi_vs_full"] >= MIN_NMI_VS_FULL, (
            f"nlpkkt200 batch {row['batch']}: nmi_vs_full "
            f"{row['nmi_vs_full']:.4f} < {MIN_NMI_VS_FULL}"
        )


def test_stream_speedup(benchmark, measurements):
    name0, scale0 = CASES[0]
    entry0 = next(e for e in SUITE if e.name == name0)
    graph0 = entry0.load(scale0)
    warm = StreamSession(graph0, screening="local", frontier_scope="endpoints")
    rng = np.random.default_rng(11)
    batch_edges0 = max(1, int(graph0.num_edges * CHURN))
    benchmark.pedantic(
        lambda: warm.apply(add=_random_batch(warm.graph, batch_edges0, rng)[0]),
        rounds=2,
        iterations=1,
    )

    table_rows = []
    for case in measurements:
        speedups = sorted(row["speedup"] for row in case["batches"])
        median = speedups[len(speedups) // 2]
        for row in case["batches"]:
            table_rows.append(
                (
                    case["graph"],
                    row["batch"],
                    row["mode"],
                    row["frontier_size"],
                    row["sweeps"],
                    row["stream_seconds"] * 1e3,
                    row["cold_seconds"] * 1e3,
                    row["speedup"],
                    row["q_stream"],
                    row["q_cold"],
                    row["nmi_vs_full"],
                    row["nmi_vs_cold"],
                )
            )
        case["median_speedup"] = median

    text = "\n".join(
        [
            banner(f"Streaming: incremental vs cold re-clustering [{ALGO}]"),
            f"{BATCHES} batches x {CHURN:.1%} churn "
            f"({REMOVE_FRACTION:.0%} deletions); cold = min of "
            f"{COLD_ROUNDS} runs",
            "",
            format_table(
                (
                    "graph",
                    "batch",
                    "mode",
                    "frontier",
                    "sweeps",
                    "stream ms",
                    "cold ms",
                    "speedup",
                    "Q stream",
                    "Q cold",
                    "NMI full",
                    "NMI",
                ),
                table_rows,
                floatfmt=".4g",
            ),
        ]
    )
    emit(STEM, text)

    trace_reports = [
        report for case in measurements for report in case.pop("_trace")
    ]
    emit_report(
        STEM,
        trace_reports,
        meta={
            "cases": [name for name, _ in CASES],
            "churn": CHURN,
            "algo": ALGO,
        },
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": STEM,
        "algo": ALGO,
        "min_speedup_required": MIN_SPEEDUP,
        "cases": measurements,
    }
    json_path = RESULTS_DIR / f"{STEM}.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[json written to {json_path}]")

    for case in measurements:
        assert case["median_speedup"] >= MIN_SPEEDUP, (
            f"{case['graph']}: {case['median_speedup']:.2f}x < {MIN_SPEEDUP}x"
        )
