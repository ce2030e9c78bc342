"""Community-recovery quality across mixing levels (LFR-style benchmark),
plus the per-algorithm streaming comparison table and its committed gate.

Part 1 is not a paper figure — the standard community-detection quality
protocol applied to every solver in the repository: sweep the LFR mixing
parameter (fraction of each vertex's edges leaving its community) and
measure NMI against the planted ground truth.  All fine-grained solvers
should track the sequential baseline's recovery curve; the coarse-grained
one is expected to fall off earliest (its phase A cannot see cross-part
structure) — consistent with the paper's §3 taxonomy.

Part 2 compares the :mod:`repro.core.engine` algorithms (louvain,
leiden, lpa) on the streaming churn scenario over small-suite graphs:
final Q, worst per-batch NMI against a warm full run (the audit
semantics), and wall time.  CI's ``quality-bench`` job fails if leiden's
NMI-vs-full on the nlpkkt200 scenario regresses below the floor
committed in ``results/BENCH_quality_gate.json`` — the streaming quality
degeneracy this repository's leiden engine exists to fix.  Each
scenario's session is traced (trace id ``quality-<graph>-<algo>``) into
the flight journal under ``results/flight``, which that job's failure
bundle reads.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np
import pytest

from repro.bench.reporting import banner, format_table
from repro.bench.suite import SUITE
from repro.core.engine import ALGO_NAMES, get_engine
from repro.core.gpu_louvain import gpu_louvain
from repro.graph.generators import lfr_like
from repro.metrics.quality import normalized_mutual_information
from repro.parallel import coarse_louvain, lu_louvain, plm_louvain
from repro.seq.louvain import louvain as sequential_louvain
from repro.stream import StreamConfig, StreamSession
from repro.trace import Tracer

from _util import RESULTS_DIR, emit, flight_journal

MIXINGS = (0.1, 0.25, 0.4, 0.55)

SOLVERS = (
    ("gpu", lambda g: gpu_louvain(g, bin_vertex_limit=1_000)),
    ("seq", sequential_louvain),
    ("plm", plm_louvain),
    ("lu", lu_louvain),
    ("coarse", lambda g: coarse_louvain(g, num_parts=4)),
)


@pytest.fixture(scope="module")
def recovery():
    rows = {}
    for mixing in MIXINGS:
        graph, truth = lfr_like(1200, rng=17, avg_degree=14, mixing=mixing)
        for name, solver in SOLVERS:
            result = solver(graph)
            nmi = normalized_mutual_information(result.membership, truth)
            rows[(name, mixing)] = nmi
    return rows


def test_recovery_curves(benchmark, recovery):
    graph, _ = lfr_like(1200, rng=17, avg_degree=14, mixing=0.25)
    benchmark.pedantic(
        lambda: gpu_louvain(graph, bin_vertex_limit=1_000), rounds=3, iterations=1
    )

    table_rows = []
    for name, _ in SOLVERS:
        table_rows.append([name, *[recovery[(name, m)] for m in MIXINGS]])
    table = format_table(
        ["solver", *[f"mix={m}" for m in MIXINGS]], table_rows, floatfmt=".3f"
    )
    emit("quality_recovery", banner("LFR recovery (NMI vs mixing)") + "\n" + table)

    # Every fine-grained solver recovers near-perfectly at low mixing.
    for name, _ in SOLVERS:
        if name != "coarse":
            assert recovery[(name, 0.1)] > 0.95, name
    # The GPU engine tracks the sequential baseline across the sweep
    # (it trails a little at high mixing, where concurrent bucket commits
    # cost some recall — an honest gap, recorded in the emitted table).
    for m in MIXINGS:
        assert recovery[("gpu", m)] > recovery[("seq", m)] - 0.2
    # The coarse-grained solver falls off earliest (§3's taxonomy).
    for m in MIXINGS[1:]:
        fine_best = max(recovery[(n, m)] for n, _ in SOLVERS if n != "coarse")
        assert recovery[("coarse", m)] < fine_best
    # Recovery degrades with mixing for every solver (monotone-ish).
    for name, _ in SOLVERS:
        assert recovery[(name, 0.1)] >= recovery[(name, 0.55)] - 0.05, name


# --------------------------------------------------------------------- #
# Part 2: per-algorithm streaming comparison + the committed leiden gate
# --------------------------------------------------------------------- #

#: Small-suite graphs for the streaming scenario (scale 1.0), one per
#: structural regime; nlpkkt200 is the gate graph (near-tied partitions
#: make it the degeneracy-prone case the ISSUE's bugfix targets).
STREAM_GRAPHS = ("out.actor-collaboration", "uk-2002", "nlpkkt200", "road_usa")
STREAM_BATCHES = 4
STREAM_CHURN = 0.005
STREAM_REMOVE_FRACTION = 0.2

#: Committed regression floor for leiden's NMI-vs-full on nlpkkt200.
GATE_PATH = RESULTS_DIR / "BENCH_quality_gate.json"


def _churn_batch(graph, count, rng):
    """~80% random insertions, ~20% deletions (bench_stream's recipe)."""
    num_remove = int(count * STREAM_REMOVE_FRACTION)
    num_add = count - num_remove
    n = graph.num_vertices
    au = rng.integers(0, n, num_add)
    av = (au + rng.integers(1, n, num_add)) % n
    eu, ev, _ = graph.edge_list()
    not_loop = eu != ev
    eu, ev = eu[not_loop], ev[not_loop]
    pick = rng.choice(eu.size, size=min(num_remove, eu.size), replace=False)
    return (au, av, None), (eu[pick], ev[pick])


def stream_scenario(name, base, algo, recorder, *, batches=STREAM_BATCHES):
    """One (graph, algo) churn run; its session's spans go to ``recorder``."""
    rng = np.random.default_rng(7)  # identical churn per algo
    config = StreamConfig(algo=algo, screening="local", frontier_scope="endpoints")
    engine = get_engine(algo)
    tracer = Tracer(flight=recorder, trace_id=f"quality-{name}-{algo}")
    start = perf_counter()
    session = StreamSession(base, config, tracer=tracer)
    worst = 1.0
    batch_edges = max(1, int(base.num_edges * STREAM_CHURN))
    for _ in range(batches):
        add, remove = _churn_batch(session.graph, batch_edges, rng)
        before = session.membership.copy()
        result = session.apply(add=add, remove=remove)
        full = engine.detect(session.graph, config.louvain, initial_communities=before)
        worst = min(
            worst, normalized_mutual_information(result.membership, full.membership)
        )
    return {
        "q_final": session.modularity,
        "worst_nmi_vs_full": worst,
        "seconds": perf_counter() - start,
    }


@pytest.fixture(scope="module")
def algo_comparison():
    rows = {}
    with flight_journal() as recorder:
        for name in STREAM_GRAPHS:
            base = next(e for e in SUITE if e.name == name).load(1.0)
            for algo in ALGO_NAMES:
                rows[(name, algo)] = stream_scenario(name, base, algo, recorder)
    return rows


def test_algo_comparison_table(algo_comparison):
    table_rows = [
        [
            name,
            algo,
            row["q_final"],
            row["worst_nmi_vs_full"],
            row["seconds"],
        ]
        for (name, algo), row in algo_comparison.items()
    ]
    table = format_table(
        ["graph", "algo", "Q final", "NMI vs full", "seconds"],
        table_rows,
        floatfmt=".4f",
    )
    emit(
        "quality_algos",
        banner(
            f"Engine comparison: {STREAM_BATCHES} batches x "
            f"{STREAM_CHURN:.1%} churn"
        )
        + "\n"
        + table,
    )
    # Every algorithm produces a valid, non-degenerate partition.
    for (name, algo), row in algo_comparison.items():
        assert row["q_final"] > 0.0, (name, algo)
        assert 0.0 <= row["worst_nmi_vs_full"] <= 1.0, (name, algo)


def test_leiden_gate_vs_committed_baseline(algo_comparison):
    """CI quality-bench gate: leiden NMI-vs-full must not regress below
    the committed floor on the nlpkkt200 streaming scenario."""
    gate = json.loads(GATE_PATH.read_text())
    floor = gate["min_nmi_vs_full"]["leiden"]
    row = algo_comparison[("nlpkkt200", "leiden")]
    assert row["worst_nmi_vs_full"] >= floor, (
        f"leiden nmi_vs_full {row['worst_nmi_vs_full']:.4f} regressed "
        f"below the committed floor {floor} "
        f"(see {GATE_PATH.name}; baseline before the engine refactor "
        f"drifted to ~0.61)"
    )
    # The fix must actually help: leiden never agrees *less* with the
    # warm full run than plain louvain does on the gate graph.
    louvain = algo_comparison[("nlpkkt200", "louvain")]
    assert (
        row["worst_nmi_vs_full"] >= louvain["worst_nmi_vs_full"] - 0.02
    )
