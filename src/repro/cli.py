"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``      print a graph file's structural statistics
``detect``    run community detection and write/print the membership
``stream``    incremental detection over batches of edge updates
``generate``  synthesise a graph from one of the generator families
``suite``     list or materialise the Table-1 analog benchmark suite
``serve``     multi-tenant detection-as-a-service HTTP server
``top``       live dashboard over a running serve instance

Trace analytics (:mod:`repro.obs`)
----------------------------------
``trace-summary``  stage table + critical-path flame view of a trace file
``trace-diff``     diff two traces by span path; exit 1 on regression
``trajectory``     query the append-only perf-trajectory store
``bench-gate``     run the small suite and gate it against the baseline

Examples::

    python -m repro generate social -n 5000 -m 8 -o social.txt
    python -m repro info social.txt
    python -m repro detect social.txt --solver gpu -o communities.txt
    python -m repro stream social.txt --updates batches.txt -o final.txt
    python -m repro stream social.txt --synthetic 200 --batches 5
    python -m repro suite --name road_usa -o road.txt
    python -m repro serve --port 8077 --max-sessions 8
    python -m repro detect social.txt --trace run.json
    python -m repro trace-summary run.json
    python -m repro trace-diff baseline.json candidate.json --threshold 1.5
    python -m repro trajectory --graph uk-2002 --metric optimization_seconds --last 10
    python -m repro bench-gate --baseline benchmarks/results/BENCH_trajectory.json
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Community Detection on the GPU (IPDPS 2017) — reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print graph statistics")
    info.add_argument("path", help="edge list / METIS / MatrixMarket file")

    detect = sub.add_parser("detect", help="detect communities")
    detect.add_argument("path", help="input graph file")
    detect.add_argument(
        "--solver",
        choices=["gpu", "seq", "plm", "lu", "coarse", "sort", "multigpu"],
        default="gpu",
        help="algorithm to run (default: the paper's GPU algorithm)",
    )
    detect.add_argument(
        "--algo",
        choices=["louvain", "lpa", "leiden"],
        default="louvain",
        help="gpu solver algorithm: louvain (default), lpa (weighted "
             "label propagation), or leiden (louvain + well-connectedness "
             "refinement)",
    )
    detect.add_argument(
        "--engine",
        choices=["vectorized", "simulated"],
        default="vectorized",
        help="gpu solver execution engine",
    )
    detect.add_argument("--threshold-bin", type=float, default=1e-2)
    detect.add_argument("--threshold-final", type=float, default=1e-6)
    detect.add_argument("--bin-vertex-limit", type=int, default=100_000)
    detect.add_argument("--resolution", type=float, default=1.0,
                        help="gamma of the generalised modularity (gpu solver)")
    detect.add_argument("--warm-start", metavar="FILE",
                        help="previous 'vertex community' file to warm-start "
                             "from (gpu solver)")
    detect.add_argument("--devices", type=int, default=4,
                        help="device count for --solver multigpu")
    detect.add_argument("-o", "--output", help="write 'vertex community' lines here")
    detect.add_argument("--levels", action="store_true",
                        help="also print the per-level hierarchy summary")
    detect.add_argument("--trace", metavar="FILE",
                        help="write a repro.trace/1 JSON run report here "
                             "(per-level spans and sweep counters)")
    detect.add_argument("--trace-summary", action="store_true",
                        help="print the human-readable trace summary table")

    stream = sub.add_parser(
        "stream", help="incremental detection over edge-update batches"
    )
    stream.add_argument("path", help="input graph file")
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--updates", metavar="FILE",
        help="update file: '+ u v [w]' / '- u v' lines; blank line or "
             "'--' separates batches; '#' comments",
    )
    source.add_argument(
        "--synthetic", type=int, metavar="EDGES",
        help="generate EDGES random updates per batch instead",
    )
    stream.add_argument("--batches", type=int, default=5,
                        help="number of synthetic batches (default 5)")
    stream.add_argument("--remove-fraction", type=float, default=0.2,
                        help="fraction of synthetic updates that delete "
                             "existing edges (default 0.2)")
    stream.add_argument("--seed", type=int, default=0,
                        help="rng seed for --synthetic")
    stream.add_argument(
        "--algo",
        choices=["louvain", "lpa", "leiden"],
        default="louvain",
        help="detection algorithm for the session (leiden refines every "
             "contraction, fixing deletion-induced disconnected "
             "communities; lpa = frontier-seeded label propagation)",
    )
    stream.add_argument("--screening", choices=["local", "exact"], default="local",
                        help="delta-screening mode (exact = bit-parity with a "
                             "full warm-started run)")
    stream.add_argument("--frontier-scope", choices=["community", "endpoints"],
                        default="community",
                        help="seed rule: full community screen, or endpoints "
                             "only (for graphs with few large communities)")
    stream.add_argument("--full-rerun-interval", type=int, default=0,
                        help="run the exact full pipeline every K batches and "
                             "report NMI/Q drift (0 = never)")
    stream.add_argument("--frontier-limit", type=float, default=0.5,
                        help="frontier fraction above which a batch falls back "
                             "to the full pipeline")
    stream.add_argument("--threshold-bin", type=float, default=1e-2)
    stream.add_argument("--threshold-final", type=float, default=1e-6)
    stream.add_argument("--bin-vertex-limit", type=int, default=100_000)
    stream.add_argument("--resolution", type=float, default=1.0)
    stream.add_argument("--warm-start", metavar="FILE",
                        help="previous 'vertex community' file for the "
                             "initial clustering")
    stream.add_argument("-o", "--output",
                        help="write the final 'vertex community' lines here")
    stream.add_argument("--trace", metavar="FILE",
                        help="write a repro.trace/1 JSON trace here (one run "
                             "report per batch plus the initial clustering)")
    stream.add_argument("--trace-summary", action="store_true",
                        help="print the per-batch trace summary tables")

    generate = sub.add_parser("generate", help="synthesise a graph")
    generate.add_argument(
        "family",
        choices=[
            "social", "rmat", "ba", "lfr", "caveman", "road", "rgg",
            "delaunay", "stencil", "kkt", "karate",
        ],
    )
    generate.add_argument("-n", type=int, default=1000, help="vertex count / side")
    generate.add_argument("-m", type=int, default=8, help="edges per vertex (social/ba)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True)

    suite = sub.add_parser("suite", help="the Table-1 analog suite")
    group = suite.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", help="list all 55 entries")
    group.add_argument("--name", help="materialise one entry's analog graph")
    suite.add_argument("--scale", type=float, default=1.0)
    suite.add_argument("-o", "--output", help="output path (with --name)")

    serve = sub.add_parser(
        "serve", help="multi-tenant detection-as-a-service HTTP server"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8077,
                       help="bind port; 0 picks an ephemeral port (default 8077)")
    serve.add_argument("--max-sessions", type=int, default=8,
                       help="resident-session LRU cap; 0 disables (default 8)")
    serve.add_argument("--max-bytes", type=int, default=None,
                       help="resident-memory budget in bytes (default: none)")
    serve.add_argument("--snapshot-dir", default="sessions",
                       help="directory for session snapshots (default ./sessions)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="apply every batch request individually instead of "
                            "folding queued bursts into one apply")
    serve.add_argument("--no-trace", action="store_true",
                       help="do not attach tracers (disables /report retrieval)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the metrics registry and GET /v1/metrics")
    serve.add_argument("--slow-request-ms", type=float, default=1000.0,
                       help="log a warning for requests slower than this "
                            "(default 1000 ms)")
    serve.add_argument("--log-level", default="info",
                       choices=("debug", "info", "warning", "error", "off"),
                       help="structured JSON log level on stderr (default info)")
    serve.add_argument("--no-flight", action="store_true",
                       help="disable the flight recorder (GET /v1/debug/flight, "
                            "crash journals, debug bundles)")
    serve.add_argument("--flight-bytes", type=int, default=1 << 20,
                       help="flight-recorder ring budget in bytes "
                            "(default 1 MiB)")
    serve.add_argument("--flight-dir", default=None,
                       help="directory for crash-surviving flight journals "
                            "(default <snapshot-dir>/flight; 'none' disables "
                            "journaling, keeping the in-memory ring only)")
    serve.add_argument("--stall-seconds", type=float, default=0.0,
                       help="watchdog: write a debug bundle when one apply "
                            "blocks the session worker longer than this "
                            "(0 = off)")
    serve.add_argument("--exemplar-ms", type=float, default=50.0,
                       help="attach trace-id exemplars to latency histogram "
                            "observations at or above this many milliseconds "
                            "(0 = every observation)")

    bundle = sub.add_parser(
        "debug-bundle",
        help="collect a debugging tarball (flight snapshot, metrics, stats, "
             "environment, bench-trajectory tail) from a live server or from "
             "crash journals",
    )
    bundle.add_argument("--host", default="127.0.0.1",
                        help="server address (default 127.0.0.1)")
    bundle.add_argument("--port", type=int, default=8077,
                        help="server port; pass 0 to skip the live server and "
                             "read --flight-dir journals only (default 8077)")
    bundle.add_argument("--flight-dir", default=None,
                        help="flight-journal directory to fall back to when "
                             "the server is unreachable (e.g. after a crash)")
    bundle.add_argument("--trajectory",
                        default="benchmarks/results/BENCH_trajectory.json",
                        help="bench-trajectory store whose tail to include")
    bundle.add_argument("--timeout", type=float, default=5.0,
                        help="live-server request timeout (default 5 s)")
    bundle.add_argument("-o", "--out", default=None,
                        help="output tarball path "
                             "(default debug-bundle-<pid>.tar.gz)")

    top = sub.add_parser(
        "top", help="live dashboard over a running repro.serve server"
    )
    top.add_argument("--host", default="127.0.0.1",
                     help="server address (default 127.0.0.1)")
    top.add_argument("--port", type=int, default=8077,
                     help="server port (default 8077)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls (default 2)")
    top.add_argument("--count", type=int, default=0,
                     help="stop after N frames (default: until interrupted)")
    top.add_argument("--once", action="store_true",
                     help="print one frame without clearing the screen")
    top.add_argument("--json", action="store_true",
                     help="dump the raw /v1/stats payload once and exit")

    summary = sub.add_parser(
        "trace-summary", help="analyze a repro.trace/1 JSON file"
    )
    summary.add_argument("path", help="trace file (detect/stream --trace or "
                                      "a bench *.trace.json container)")
    summary.add_argument("--depth", type=int, default=3,
                         help="flame-view depth (default 3: run/level/stage)")
    summary.add_argument("--json", action="store_true",
                         help="print the per-span-path aggregates as JSON")

    tdiff = sub.add_parser(
        "trace-diff", help="diff two traces by span path (exit 1 on regression)"
    )
    tdiff.add_argument("baseline", help="baseline trace file")
    tdiff.add_argument("candidate", help="candidate trace file")
    tdiff.add_argument("--threshold", type=float, default=1.5,
                       help="allowed per-path slowdown ratio (default 1.5)")
    tdiff.add_argument("--min-seconds", type=float, default=1e-4,
                       help="absolute slowdown floor below which a path "
                            "never regresses (default 1e-4)")
    tdiff.add_argument("--all", action="store_true",
                       help="show paths within threshold too")
    tdiff.add_argument("--json", action="store_true",
                       help="print the machine-readable verdict document")

    traj = sub.add_parser(
        "trajectory", help="query the append-only perf-trajectory store"
    )
    traj.add_argument("--file", default="benchmarks/results/BENCH_trajectory.json",
                      help="trajectory store path (default: the committed "
                           "benchmarks/results/BENCH_trajectory.json)")
    traj.add_argument("--keys", action="store_true",
                      help="list distinct (graph, engine, fingerprint) keys")
    traj.add_argument("--graph", help="filter by graph name")
    traj.add_argument("--engine", help="filter by engine")
    traj.add_argument("--fingerprint", help="filter by config fingerprint")
    traj.add_argument("--metric", default="optimization_seconds",
                      help="metric to chart (default optimization_seconds)")
    traj.add_argument("--last", type=int, default=None,
                      help="only the most recent N matching entries")

    gate = sub.add_parser(
        "bench-gate", help="run the small suite and gate against the baseline"
    )
    gate.add_argument("--baseline",
                      default="benchmarks/results/BENCH_trajectory.json",
                      help="trajectory store holding the baseline history")
    gate.add_argument("--current", metavar="FILE",
                      help="gate a saved trace container instead of "
                           "running the suite (reports need meta['graph'])")
    gate.add_argument("--threshold", type=float, default=2.0,
                      help="allowed slowdown ratio vs the baseline window "
                           "minimum (default 2.0)")
    gate.add_argument("--window", type=int, default=5,
                      help="baseline entries per key to consider (default 5)")
    gate.add_argument("--scale", type=float, default=0.25,
                      help="suite scale for the gate runs (default 0.25)")
    gate.add_argument("--engines", default="vectorized,simulated",
                      help="comma-separated engines (default both)")
    gate.add_argument("--repeats", type=int, default=2,
                      help="runs per key, keeping the fastest (default 2)")
    gate.add_argument("--append", action="store_true",
                      help="append the current entries to the baseline "
                           "store after the check")
    gate.add_argument("--json", action="store_true",
                      help="print the machine-readable verdict document")

    return parser


def _load_graph(path: str):
    """``load_graph(path)``, or ``None`` after printing why it failed.

    The readers' errors name the file, the line and the reason, so the
    message is all a user needs; no traceback.
    """
    from .graph.io import load_graph

    try:
        return load_graph(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.path)
    if graph is None:
        return 2
    degrees = graph.degrees
    print(f"vertices:        {graph.num_vertices}")
    print(f"edges:           {graph.num_edges}")
    print(f"total weight 2m: {graph.total_weight:g}")
    if degrees.size:
        print(f"degrees:         min {degrees.min()}  "
              f"median {int(np.median(degrees))}  max {degrees.max()}")
        print(f"avg degree:      {2 * graph.num_edges / graph.num_vertices:.2f}")
    loops = graph.self_loop_weights()
    print(f"self loops:      {int(np.count_nonzero(loops))}")
    return 0


def _read_membership(path: str, num_vertices: int) -> np.ndarray:
    """Read and validate a 'vertex community' file (the detect -o format).

    The engines require one label per vertex with labels inside
    ``[0, num_vertices)``; a stale or foreign warm-start file easily
    violates that (graph shrank, labels are external community ids).
    Validation happens here at the boundary: a malformed line or a
    vertex id outside the graph raises a :class:`ValueError` naming the
    file and line, and labels outside ``[0, num_vertices)`` are
    renumbered densely (preserving the partition) instead of failing
    deep inside the engine.  Valid in-range labels pass through
    untouched, so existing warm-start files keep their exact runs.

    Unlisted vertices default to singleton communities of their own id.
    """
    membership = np.arange(num_vertices, dtype=np.int64)
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'vertex community', got {raw!r}"
                )
            try:
                v = int(parts[0])
                c = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected integer 'vertex community', "
                    f"got {raw!r}"
                ) from None
            if not 0 <= v < num_vertices:
                raise ValueError(
                    f"{path}:{lineno}: vertex {v} out of range for a graph "
                    f"with {num_vertices} vertices"
                )
            membership[v] = c
    if membership.size and (
        membership.min() < 0 or membership.max() >= num_vertices
    ):
        # Out-of-range labels: renumber densely (first-seen-by-value
        # order, deterministic) — the partition is preserved and every
        # label lands in [0, num_vertices) as the engines require.
        _, membership = np.unique(membership, return_inverse=True)
        membership = membership.astype(np.int64)
    return membership


def _cmd_detect(args: argparse.Namespace) -> int:
    graph = _load_graph(args.path)
    if graph is None:
        return 2
    tracing = bool(args.trace or args.trace_summary)
    tracer = None
    if tracing:
        from .trace import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    if args.solver == "gpu":
        initial = None
        if args.warm_start:
            try:
                initial = _read_membership(args.warm_start, graph.num_vertices)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        from .core.config import GPULouvainConfig
        from .core.engine import get_engine

        result = get_engine(args.algo).detect(
            graph,
            GPULouvainConfig(
                engine=args.engine,
                threshold_bin=args.threshold_bin,
                threshold_final=args.threshold_final,
                bin_vertex_limit=args.bin_vertex_limit,
                resolution=args.resolution,
            ),
            initial_communities=initial,
            tracer=tracer,
        )
    else:
        # The reference solvers run behind the same Engine protocol.
        from .core.config import GPULouvainConfig
        from .core.engine import get_engine

        options = {"devices": args.devices} if args.solver == "multigpu" else {}
        result = get_engine(args.solver, **options).detect(
            graph,
            GPULouvainConfig(
                threshold_bin=args.threshold_bin,
                threshold_final=args.threshold_final,
                bin_vertex_limit=args.bin_vertex_limit,
                resolution=args.resolution,
            ),
            tracer=tracer,
        )
    seconds = time.perf_counter() - start

    print(f"solver:      {args.solver}")
    if args.solver == "gpu" and args.algo != "louvain":
        print(f"algo:        {args.algo}")
    print(f"modularity:  {result.modularity:.6f}")
    print(f"communities: {result.num_communities}")
    print(f"levels:      {result.num_levels}")
    print(f"seconds:     {seconds:.3f}")
    if args.levels:
        for k, ((n, e), q) in enumerate(
            zip(result.level_sizes, result.modularity_per_level)
        ):
            print(f"  level {k}: n={n} E={e} Q={q:.4f}")
    if tracing:
        from .obs import stage_table
        from .trace import report_from_result

        extra = (
            {"algo": args.algo}
            if args.solver == "gpu" and args.algo != "louvain"
            else {}
        )
        report = report_from_result(
            result,
            tracer=tracer,
            solver=args.solver,
            engine=args.engine if args.solver == "gpu" else args.solver,
            graph=str(args.path),
            **extra,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            seconds=round(seconds, 6),
        )
        if args.trace:
            with open(args.trace, "w") as handle:
                handle.write(report.to_json() + "\n")
            print(f"trace written to {args.trace}")
        if args.trace_summary:
            print(stage_table(report))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("# vertex community\n")
            for v, c in enumerate(result.membership):
                handle.write(f"{v} {c}\n")
        print(f"membership written to {args.output}")
    return 0


def _read_update_batches(
    path: str,
) -> list[tuple[tuple | None, tuple | None]]:
    """Parse an update file into ``(add, remove)`` batch tuples.

    Lines are ``+ u v [w]`` (insert; default weight 1) or ``- u v``
    (delete).  A blank line or a ``--`` line closes the current batch;
    ``#`` starts a comment.
    """
    batches: list[tuple[tuple | None, tuple | None]] = []
    add_u: list[int] = []
    add_v: list[int] = []
    add_w: list[float] = []
    rem_u: list[int] = []
    rem_v: list[int] = []

    def flush() -> None:
        nonlocal add_u, add_v, add_w, rem_u, rem_v
        if not add_u and not rem_u:
            return
        add = (
            (np.array(add_u), np.array(add_v), np.array(add_w))
            if add_u
            else None
        )
        remove = (np.array(rem_u), np.array(rem_v)) if rem_u else None
        batches.append((add, remove))
        add_u, add_v, add_w, rem_u, rem_v = [], [], [], [], []

    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or line == "--":
                flush()
                continue
            parts = line.split()
            op = parts[0]
            if op == "+" and len(parts) in (3, 4):
                add_u.append(int(parts[1]))
                add_v.append(int(parts[2]))
                add_w.append(float(parts[3]) if len(parts) == 4 else 1.0)
            elif op == "-" and len(parts) == 3:
                rem_u.append(int(parts[1]))
                rem_v.append(int(parts[2]))
            else:
                raise ValueError(
                    f"{path}:{lineno}: expected '+ u v [w]' or '- u v', got {raw!r}"
                )
    flush()
    return batches


def _synthetic_batches(
    session, num_batches: int, edges_per_batch: int, remove_fraction: float, seed: int
):
    """Yield random ``(add, remove)`` batches against the session's graph."""
    rng = np.random.default_rng(seed)
    for _ in range(num_batches):
        graph = session.graph
        n = graph.num_vertices
        num_remove = int(edges_per_batch * remove_fraction)
        num_add = edges_per_batch - num_remove
        add = None
        if num_add:
            au = rng.integers(0, n, num_add)
            av = (au + rng.integers(1, n, num_add)) % n
            add = (au, av, None)
        remove = None
        if num_remove:
            eu, ev, _ = graph.edge_list()
            not_loop = eu != ev
            eu, ev = eu[not_loop], ev[not_loop]
            if eu.size:
                pick = rng.choice(eu.size, size=min(num_remove, eu.size), replace=False)
                remove = (eu[pick], ev[pick])
        yield add, remove


def _cmd_stream(args: argparse.Namespace) -> int:
    from .stream import StreamSession

    graph = _load_graph(args.path)
    if graph is None:
        return 2
    tracing = bool(args.trace or args.trace_summary)
    tracer = None
    if tracing:
        from .trace import Tracer

        tracer = Tracer()
    initial = None
    if args.warm_start:
        try:
            initial = _read_membership(args.warm_start, graph.num_vertices)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    session = StreamSession(
        graph,
        tracer=tracer,
        algo=args.algo,
        screening=args.screening,
        frontier_scope=args.frontier_scope,
        full_rerun_interval=args.full_rerun_interval,
        frontier_fraction_limit=args.frontier_limit,
        threshold_bin=args.threshold_bin,
        threshold_final=args.threshold_final,
        bin_vertex_limit=args.bin_vertex_limit,
        resolution=args.resolution,
        initial_membership=initial,
    )
    if args.algo != "louvain":
        print(f"algo: {args.algo}")
    print(f"initial: n={graph.num_vertices} E={graph.num_edges} "
          f"Q={session.modularity:.6f} "
          f"communities={session.result.num_communities}")

    if args.updates:
        batches = _read_update_batches(args.updates)
    else:
        batches = _synthetic_batches(
            session, args.batches, args.synthetic, args.remove_fraction, args.seed
        )

    header = (f"{'batch':>5s} {'mode':12s} {'+e':>6s} {'-e':>6s} "
              f"{'frontier':>9s} {'front%':>7s} {'sweeps':>6s} "
              f"{'Q':>9s} {'dQ_full':>9s} {'NMI':>6s} {'ms':>8s}")
    print(header)
    for add, remove in batches:
        result = session.apply(add=add, remove=remove)
        sweeps = sum(result.sweeps_per_level)
        drift = ("-" if result.q_full is None
                 else f"{result.modularity - result.q_full:+.2e}")
        nmi = "-" if result.nmi_vs_full is None else f"{result.nmi_vs_full:.3f}"
        print(f"{result.batch:5d} {result.mode:12s} {result.edges_added:6d} "
              f"{result.edges_removed:6d} {result.frontier_size:9d} "
              f"{result.frontier_fraction:7.2%} {sweeps:6d} "
              f"{result.modularity:9.6f} {drift:>9s} {nmi:>6s} "
              f"{result.seconds * 1e3:8.1f}")

    print(f"final: E={session.graph.num_edges} Q={session.modularity:.6f} "
          f"communities={session.result.num_communities}")
    if tracing:
        import json as _json

        from .trace import TRACE_SCHEMA

        if args.trace:
            payload = {
                "schema": TRACE_SCHEMA,
                "meta": {
                    "kind": "stream",
                    "graph": str(args.path),
                    "screening": args.screening,
                    "batches": session.batches,
                    **({"algo": args.algo} if args.algo != "louvain" else {}),
                },
                "initial": (
                    session.initial_report.to_dict()
                    if session.initial_report is not None
                    else None
                ),
                "batches": [report.to_dict() for report in session.reports],
            }
            with open(args.trace, "w") as handle:
                handle.write(_json.dumps(payload, indent=2) + "\n")
            print(f"trace written to {args.trace}")
        if args.trace_summary:
            from .obs import format_stream_aggregate, stage_table, stream_aggregate

            for report in session.reports:
                print(f"--- batch {report.result.get('batch')} "
                      f"({report.result.get('mode')}) ---")
                print(stage_table(report))
            print(format_stream_aggregate(stream_aggregate(session.reports)))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("# vertex community\n")
            for v, c in enumerate(session.membership):
                handle.write(f"{v} {c}\n")
        print(f"membership written to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .graph import generators as gen
    from .graph.io import write_edge_list

    n, m, seed = args.n, args.m, args.seed
    if args.family == "social":
        graph = gen.social_network(n, m, rng=seed)
    elif args.family == "rmat":
        scale = max(4, int(np.ceil(np.log2(max(n, 16)))))
        graph = gen.rmat(scale, m, rng=seed)
    elif args.family == "ba":
        graph = gen.barabasi_albert(n, m, rng=seed)
    elif args.family == "lfr":
        graph, _ = gen.lfr_like(n, rng=seed, avg_degree=max(m, 4))
    elif args.family == "caveman":
        graph, _ = gen.caveman(max(n // max(m, 2), 2), max(m, 2))
    elif args.family == "road":
        side = max(4, int(np.sqrt(n)))
        graph = gen.road_grid(side, side, rng=seed)
    elif args.family == "rgg":
        radius = float(np.sqrt(max(m, 4) / (np.pi * n)))
        graph = gen.random_geometric(n, radius, rng=seed)
    elif args.family == "delaunay":
        graph = gen.delaunay_graph(n, rng=seed)
    elif args.family == "stencil":
        side = max(3, round(n ** (1 / 3)))
        graph = gen.stencil3d(side, side, side)
    elif args.family == "kkt":
        side = max(3, round((n // 2) ** (1 / 3)))
        graph = gen.kkt_like(side, side, side, rng=seed)
    else:  # karate
        graph = gen.karate_club()
    write_edge_list(graph, args.output)
    print(f"{args.family}: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges -> {args.output}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .bench.suite import SUITE, load_suite_graph
    from .graph.io import write_edge_list

    if args.list:
        print(f"{'name':28s} {'family':13s} {'paper V':>12s} {'paper E':>13s} "
              f"{'seq s':>8s} {'gpu s':>7s}")
        for entry in SUITE:
            print(f"{entry.name:28s} {entry.family:13s} "
                  f"{entry.paper_vertices:12,d} {entry.paper_edges:13,d} "
                  f"{entry.paper_seq_seconds:8.2f} {entry.paper_gpu_seconds:7.2f}")
        return 0
    graph = load_suite_graph(args.name, args.scale)
    print(f"{args.name}: analog with {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")
    if args.output:
        write_edge_list(graph, args.output)
        print(f"written to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import traceback
    from pathlib import Path

    from .obs.flight import build_debug_bundle, get_flight_recorder
    from .obs.logs import StructuredLogger
    from .serve import ReproServer, ServeConfig, SessionManager

    if args.flight_dir == "none":
        flight_dir = None
    elif args.flight_dir is not None:
        flight_dir = args.flight_dir
    else:
        flight_dir = str(Path(args.snapshot_dir) / "flight")
    manager = SessionManager(
        ServeConfig(
            max_sessions=args.max_sessions,
            max_bytes=args.max_bytes,
            snapshot_dir=args.snapshot_dir,
            trace=not args.no_trace,
            coalesce=not args.no_coalesce,
            metrics=not args.no_metrics,
            slow_request_seconds=args.slow_request_ms / 1000.0,
            flight=not args.no_flight,
            flight_bytes=args.flight_bytes,
            flight_dir=None if args.no_flight else flight_dir,
            exemplar_seconds=args.exemplar_ms / 1000.0,
            stall_seconds=args.stall_seconds,
        )
    )
    logger = (
        None
        if args.log_level == "off"
        else StructuredLogger("repro.serve", stream=sys.stderr,
                              level=args.log_level)
    )
    server = ReproServer(
        manager, host=args.host, port=args.port,
        coalesce=not args.no_coalesce, logger=logger,
    )
    signal.signal(signal.SIGTERM, lambda *_: server.request_shutdown())

    if not args.no_flight:
        def dump_flight(*_sig) -> None:
            # SIGUSR2: dump the live ring next to the journals (or the
            # snapshot dir when journaling is off) without stopping.
            target = Path(flight_dir or args.snapshot_dir)
            target.mkdir(parents=True, exist_ok=True)
            out = target / f"flight-dump-{os.getpid()}.json"
            get_flight_recorder().dump(out)
            print(f"flight snapshot written to {out}", flush=True)

        signal.signal(signal.SIGUSR2, dump_flight)

        previous_hook = sys.excepthook

        def crash_bundle(exc_type, exc, tb) -> None:
            # Unhandled crash: best-effort bundle from in-process state
            # before the traceback prints (port=None — the server loop
            # is already dead).
            try:
                target = Path(flight_dir or args.snapshot_dir)
                target.mkdir(parents=True, exist_ok=True)
                out = target / f"bundle-crash-{os.getpid()}.tar.gz"
                build_debug_bundle(
                    out, port=None, flight_dir=flight_dir,
                    reason=f"crash: {exc_type.__name__}: {exc}",
                )
                print(f"crash debug bundle written to {out}", file=sys.stderr,
                      flush=True)
            except Exception:  # noqa: BLE001 - never mask the real crash
                traceback.print_exc()
            previous_hook(exc_type, exc, tb)

        sys.excepthook = crash_bundle

    def ready(srv: ReproServer) -> None:
        print(f"repro.serve listening on http://{srv.host}:{srv.port}", flush=True)
        print(f"sessions: max {args.max_sessions or 'unbounded'} resident, "
              f"snapshots in {args.snapshot_dir}/, "
              f"coalescing {'off' if args.no_coalesce else 'on'}", flush=True)

    server.run(ready=ready)
    print("repro.serve stopped", flush=True)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .serve.top import run_top

    return run_top(
        host=args.host,
        port=args.port,
        interval=args.interval,
        count=args.count,
        once=args.once,
        as_json=args.json,
    )


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from .obs import (
        critical_path,
        flatten_reports,
        format_stream_aggregate,
        load_trace,
        stage_table,
        stream_aggregate,
    )

    reports = load_trace(args.path)
    if not reports:
        print(f"{args.path}: no reports in trace")
        return 1
    if args.json:
        import json as _json

        aggregates = flatten_reports(reports)
        print(_json.dumps([a.to_dict() for a in aggregates.values()], indent=2))
        return 0
    for report in reports:
        if len(reports) > 1:
            meta = report.meta
            label = "  ".join(
                f"{key}={meta[key]}"
                for key in ("kind", "graph", "engine", "solver", "batch")
                if key in meta
            )
            print(f"--- {label or 'report'} ---")
        print(stage_table(report))
        print()
        print(critical_path(report, max_depth=args.depth))
        if len(reports) > 1:
            print()
    aggregate = stream_aggregate(reports)
    if aggregate["batches"]:
        print(format_stream_aggregate(aggregate))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .obs import diff_reports, load_trace

    diff = diff_reports(
        load_trace(args.baseline),
        load_trace(args.candidate),
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    if args.json:
        import json as _json

        print(_json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.format(show_all=args.all))
    return 0 if diff.ok else 1


def _cmd_trajectory(args: argparse.Namespace) -> int:
    import datetime

    from .bench.reporting import format_table
    from .obs import TrajectoryStore

    store = TrajectoryStore(args.file)
    if not store.path.exists():
        print(f"{args.file}: no trajectory store")
        return 1
    if args.keys:
        for graph, engine, fp in store.keys():
            print(f"{graph} [{engine}] {fp}")
        return 0
    rows = store.series(
        graph=args.graph,
        engine=args.engine,
        fingerprint=args.fingerprint,
        metric=args.metric,
        last=args.last,
    )
    if not rows:
        print("no trajectory entries match the filter")
        return 1
    in_seconds = args.metric.endswith("seconds")
    header = f"{args.metric} (ms)" if in_seconds else args.metric
    table_rows = []
    prev: float | None = None
    for entry, value in rows:
        when = datetime.datetime.fromtimestamp(entry.timestamp)
        change = "-" if not prev else f"{value / prev:.2f}x"
        table_rows.append(
            (
                when.strftime("%Y-%m-%d %H:%M"),
                entry.commit,
                entry.graph,
                entry.engine,
                f"{value * 1e3:.2f}" if in_seconds else f"{value:g}",
                change,
            )
        )
        prev = value
    print(format_table(
        ("when", "commit", "graph", "engine", header, "vs prev"), table_rows
    ))
    return 0


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from .obs import (
        TrajectoryStore,
        entry_from_report,
        evaluate_gate,
        load_trace,
        run_gate_entries,
    )

    store = TrajectoryStore(args.baseline)
    if args.current:
        current = [entry_from_report(r) for r in load_trace(args.current)]
    else:
        engines = tuple(e for e in args.engines.split(",") if e)
        current = run_gate_entries(
            engines=engines,
            scale=args.scale,
            repeats=args.repeats,
            progress=print,
        )
    result = evaluate_gate(
        current, store, threshold=args.threshold, window=args.window
    )
    if args.json:
        import json as _json

        print(_json.dumps(result.to_dict(), indent=2))
    else:
        print(result.format())
    if args.append:
        total = store.append(current)
        print(f"appended {len(current)} entries to {store.path} ({total} total)")
    return 0 if result.ok else 1


def _cmd_debug_bundle(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from .obs.flight import build_debug_bundle

    out = args.out or f"debug-bundle-{os.getpid()}.tar.gz"
    manifest = build_debug_bundle(
        out,
        host=args.host,
        port=args.port or None,
        flight_dir=args.flight_dir,
        trajectory=args.trajectory,
        timeout=args.timeout,
        reason="cli",
    )
    print(f"debug bundle written to {out}")
    print(_json.dumps(manifest, indent=2))
    return 0 if manifest["pieces"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "detect":
        return _cmd_detect(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "debug-bundle":
        return _cmd_debug_bundle(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "trace-summary":
        return _cmd_trace_summary(args)
    if args.command == "trace-diff":
        return _cmd_trace_diff(args)
    if args.command == "trajectory":
        return _cmd_trajectory(args)
    if args.command == "bench-gate":
        return _cmd_bench_gate(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
