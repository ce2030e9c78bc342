"""Sharded-engine wall time against the single-process engine.

Runs ``sharded_louvain`` over a worker sweep on the two largest suite
entries (uk-2002 and nlpkkt200) and times each configuration against
single-process ``gpu_louvain`` on the same graph::

    speedup = wall(gpu_louvain) / wall(sharded_louvain)

Both walls are measured, interleaved (one single-process run, then one
run per worker count, ``--repeat`` times), and the minimum of each is
kept.  Every run must reproduce the single-process result exactly (same
membership, same modularity); the bench exits non-zero otherwise.

The ``model`` columns are not measurements: ``emulated`` replaces the
serial worker compute of a sharded run with its per-step critical path
(the same convention :mod:`repro.parallel.multigpu` uses)::

    emulated = wall - workers_seconds_total + workers_seconds_critical

i.e. what a perfectly concurrent host would pay for the worker phase.

Every run is traced, and the tracers tee their spans through a
:class:`~repro.obs.flight.FlightRecorder` journal in ``flight_dir``
(default ``benchmarks/results/flight``), so ``repro debug-bundle
--flight-dir`` can bundle a failed run's spans.

Standalone::

    PYTHONPATH=src python benchmarks/bench_shard.py --workers 2 --scale 4

Under pytest (``pytest benchmarks/bench_shard.py``) a scaled-down sweep
runs with the same gate.  Traced reports go to
``benchmarks/results/shard.trace.json`` and the perf-trajectory store via
``emit_report(trajectory=True)``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

if "repro" not in sys.modules:  # standalone invocation without PYTHONPATH
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - depends on caller's env
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.bench.reporting import banner, format_table
from repro.bench.suite import load_suite_graph
from repro.core.gpu_louvain import gpu_louvain
from repro.obs.flight import FlightRecorder
from repro.shard import ShardConfig, sharded_louvain
from repro.trace import Tracer, report_from_result

from _util import RESULTS_DIR, emit, emit_report

#: The two largest Table-1 graphs (by paper edge count) in the suite.
GRAPHS = ("uk-2002", "nlpkkt200")

#: Where the tracers' spans are journaled (what CI's failure bundle reads).
FLIGHT_DIR = RESULTS_DIR / "flight"


def _worker_seconds(tracer: Tracer) -> tuple[float, float]:
    """(total, critical) worker seconds over every optimization span."""
    total = critical = 0.0
    for root in tracer.roots:
        for level in root.find("level"):
            for child in level.children:
                if child.name == "optimization":
                    total += child.counters.get("workers_seconds_total", 0.0)
                    critical += child.counters.get("workers_seconds_critical", 0.0)
    return total, critical


def _timed(run, tracer: Tracer):
    t0 = time.perf_counter()
    result = run(tracer)
    return time.perf_counter() - t0, result, tracer


def run_bench(
    *,
    workers: list[int],
    scale: float,
    partition: str = "hash",
    pool: str = "fork",
    repeat: int = 3,
    graphs: tuple[str, ...] = GRAPHS,
    flight_dir: str | Path = FLIGHT_DIR,
    progress=print,
) -> dict:
    """Run the sweep; returns rows, reports, and the gate verdict."""
    recorder = FlightRecorder(
        journal=Path(flight_dir) / f"flight-{os.getpid()}.jsonl"
    )
    rows = []
    reports = []
    ok = True
    try:
        for name in graphs:
            graph = load_suite_graph(name, scale)
            configs = {
                count: ShardConfig(workers=count, partition=partition, pool=pool)
                for count in sorted(set(workers))
            }

            def tracer(label: str) -> Tracer:
                return Tracer(flight=recorder, trace_id=f"shard-{name}-{label}")

            # Interleaved: one single-process run, then one per worker
            # count, per repeat; the minimum wall of each is kept (the
            # least contaminated observation on a shared host).
            single = None
            best: dict[int, tuple] = {}
            exact = {count: True for count in configs}
            for rep in range(max(1, repeat)):
                attempt = _timed(
                    lambda t: gpu_louvain(graph, tracer=t), tracer(f"single-r{rep}")
                )
                if single is None or attempt[0] < single[0]:
                    single = attempt
                for count, config in configs.items():
                    attempt = _timed(
                        lambda t: sharded_louvain(graph, shard=config, tracer=t),
                        tracer(f"w{count}-r{rep}"),
                    )
                    result = attempt[1]
                    exact[count] = exact[count] and (
                        np.array_equal(result.membership, single[1].membership)
                        and result.modularity == single[1].modularity
                    )
                    if count not in best or attempt[0] < best[count][0]:
                        best[count] = attempt
            single_wall = single[0]
            progress(
                f"{name}: n={graph.num_vertices} E={graph.num_edges} "
                f"single-process {single_wall * 1e3:.0f} ms"
            )
            for count, (wall, result, run_tracer) in best.items():
                total, critical = _worker_seconds(run_tracer)
                emulated = wall - total + critical
                ok = ok and exact[count]
                rows.append(
                    {
                        "graph": name,
                        "workers": count,
                        "single": single_wall,
                        "wall": wall,
                        "speedup": single_wall / wall,
                        "workers_total": total,
                        "workers_critical": critical,
                        "emulated": emulated,
                        "exact": exact[count],
                    }
                )
                reports.append(
                    report_from_result(
                        result,
                        tracer=run_tracer,
                        graph=name,
                        engine="sharded",
                        workers=count,
                        partition=partition,
                        pool=pool,
                        scale=scale,
                        seconds=round(wall, 6),
                    )
                )
                progress(
                    f"  workers={count}: sharded {wall * 1e3:7.0f} ms  "
                    f"speedup {single_wall / wall:4.2f}x  "
                    f"(model: emulated {emulated * 1e3:.0f} ms)  "
                    f"{'exact' if exact[count] else 'MISMATCH'}"
                )
    finally:
        recorder.close()
    return {"rows": rows, "reports": reports, "ok": ok, "scale": scale}


def format_results(outcome: dict) -> str:
    table_rows = [
        [
            row["graph"],
            row["workers"],
            f"{row['single'] * 1e3:.0f}",
            f"{row['wall'] * 1e3:.0f}",
            f"{row['speedup']:.2f}x",
            f"{row['workers_total'] * 1e3:.0f}",
            f"{row['workers_critical'] * 1e3:.0f}",
            f"{row['emulated'] * 1e3:.0f}",
            "exact" if row["exact"] else "FAIL",
        ]
        for row in outcome["rows"]
    ]
    table = format_table(
        [
            "graph", "workers", "single ms", "sharded ms", "speedup",
            "model: worker ms", "model: critical ms", "model: emulated ms",
            "gate",
        ],
        table_rows,
    )
    note = (
        "single / sharded ms = measured wall of gpu_louvain / sharded_louvain,\n"
        "interleaved, minimum over the repeats; speedup = single / sharded.\n"
        "model columns are not measurements: emulated = sharded wall with the\n"
        "serial worker compute replaced by the per-step critical path.\n"
        "gate: membership and modularity equal to gpu_louvain's."
    )
    return (
        banner(f"Sharded engine vs single process (scale {outcome['scale']:g})")
        + "\n" + table + "\n\n" + note
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workers", default="2",
                        help="comma-separated worker counts")
    parser.add_argument("--scale", type=float, default=4.0,
                        help="suite-analog size multiplier (default 4)")
    parser.add_argument("--partition", choices=["bfs", "hash"], default="hash")
    parser.add_argument("--pool", choices=["fork", "spawn", "inline"],
                        default="fork",
                        help="inline executes the identical worker code "
                             "path serially in-process")
    parser.add_argument("--repeat", type=int, default=3,
                        help="interleaved runs per configuration; min wall kept")
    args = parser.parse_args(argv)
    workers = [int(part) for part in args.workers.split(",") if part]
    outcome = run_bench(
        workers=workers,
        scale=args.scale,
        partition=args.partition,
        pool=args.pool,
        repeat=args.repeat,
    )
    emit("shard", format_results(outcome))
    emit_report("shard", outcome["reports"], trajectory=True,
                meta={"scale": args.scale, "pool": args.pool})
    if not outcome["ok"]:
        print("FAIL: a sharded run differs from the single-process result",
              file=sys.stderr)
        return 1
    return 0


def test_shard_scaling(benchmark):
    """Pytest entry: scaled-down sweep, same exactness gate."""
    outcome = benchmark.pedantic(
        lambda: run_bench(workers=[2], scale=0.25, progress=lambda *_: None),
        rounds=1,
        iterations=1,
    )
    emit("shard", format_results(outcome))
    emit_report("shard", outcome["reports"], trajectory=True,
                meta={"scale": 0.25, "pool": "fork"})
    assert outcome["ok"], "a sharded run differs from the single-process result"


if __name__ == "__main__":
    sys.exit(main())
