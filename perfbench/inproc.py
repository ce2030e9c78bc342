"""The measured process of the in-process workloads.

Usage::

    python perfbench/inproc.py --workload detect-mesh --inputs DIR \\
        --ops 28 --trace 0 --out result.json

Reads only the files ``gen.py`` wrote to ``DIR``, runs ``--ops`` timed
operations and writes their timings, output checks and peak RSS to
``--out`` as JSON.

* ``detect-mesh``: one operation is ``load_graph(file)`` followed by
  ``get_engine("louvain").detect(g, GPULouvainConfig())`` -- the
  ``repro detect`` defaults.
* ``stream-web``: one ``StreamSession`` (local screening, endpoint
  frontier) applies one pre-generated 64-update batch per operation.
  Set-up (load the file, build the session) is repeated three times and
  the last session is used.

After each operation, outside the timed region, the output is checked
and two partition reads (``top_k_communities(10)`` then
``community_of(v)``, timed together as one read) run against the
result: in-process reads with no writer, the baseline of serve-mixed's
read latency.

With ``--trace 1`` every other operation runs with the timing wrappers
of ``layers.py`` installed; the traced and untraced operation times
give the tracing overhead, and the spans are written to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import repro.graph.io as graph_io
from repro.core.config import GPULouvainConfig
from repro.core.engine import get_engine
from repro.graph.build import from_edges
from repro.metrics.modularity import modularity
from repro.stream import StreamConfig, StreamSession

Q_TOLERANCE = 1e-9
SETUP_REPEATS = 3
#: Seconds after which no further operation starts.
DEADLINE_S = 120.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(membership: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(membership).tobytes()).hexdigest()


class Harness:
    """Times operations, alternating traced and untraced ones on request."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.deadline = perf_counter() + DEADLINE_S
        self.recorder = layers.Recorder()
        self.wrappers = layers.Wrappers(self.recorder) if trace else None
        self.op_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.read_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def run(self, index: int, fn):
        """Run one timed operation; returns its result or ``None``.

        Past the time cap no further operation runs, so the final-state
        checks fail instead of the process outliving its time limit.
        """
        if perf_counter() > self.deadline:
            self.check("finished_within_time_cap", False)
            return None
        traced = self.trace and index % 2 == 1
        self.attempted += 1
        if traced:
            self.wrappers.install()
            root = self.recorder.open("op", "perfbench.inproc")
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - count it and go on
            self.failed += 1
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            result = None
        elapsed = (perf_counter() - start) * 1e3
        if traced:
            self.recorder.close(root)
            self.wrappers.remove()
            self.traced_ms.append(elapsed)
        else:
            self.op_ms.append(elapsed)
        return result

    def read(self, session: StreamSession, vertex: int) -> None:
        start = perf_counter()
        top = session.top_k_communities(10)
        community = session.community_of(vertex)
        self.read_ms.append((perf_counter() - start) * 1e3)
        n = session.graph.num_vertices
        self.check("read_answers_in_range",
                   0 <= community < n and all(0 <= c < n for c, _ in top))


def detect_mesh(harness: Harness, inputs: Path, manifest: dict, ops: int) -> dict:
    path = inputs / manifest["graph"]
    expected = manifest["expected"]
    digests = set()
    q = float("nan")

    def op():
        graph = graph_io.load_graph(path)
        return graph, get_engine("louvain").detect(graph, GPULouvainConfig())

    for index in range(ops):
        outcome = harness.run(index, op)
        if outcome is None:
            continue
        graph, result = outcome
        q = result.modularity
        harness.check("graph_matches_input", (
            graph.num_vertices == expected["num_vertices"]
            and graph.num_edges == expected["num_edges"]
            and graph.total_weight == expected["total_weight"]
        ))
        harness.check("q_matches_exact_recompute",
                      abs(q - modularity(graph, result.membership)) <= Q_TOLERANCE)
        digests.add(_digest(result.membership))
        view = StreamSession.resume(graph, StreamConfig(), result=result)
        n = graph.num_vertices
        for j in range(10):
            harness.read(view, (index * 10 + j) * 7919 % n)
    harness.check("membership_digest_stable", len(digests) == 1)
    return {
        "modularity": q,
        "membership_digest": sorted(digests)[0] if len(digests) == 1 else None,
        "peak_rss_mb": peak_rss_mb(),
    }


def stream_web(harness: Harness, inputs: Path, manifest: dict, ops: int) -> dict:
    path = inputs / manifest["graph"]
    stream = np.load(inputs / manifest["stream"])
    config = StreamConfig.from_dict(manifest["config"])
    setup_s = []
    for _ in range(SETUP_REPEATS):
        session = graph = None  # free the previous set-up first
        start = perf_counter()
        graph = graph_io.load_graph(path)
        session = StreamSession(graph, config)
        setup_s.append(perf_counter() - start)
    n = session.graph.num_vertices
    ins_u, ins_v = stream["ins_u"][:ops], stream["ins_v"][:ops]
    del_u, del_v = stream["del_u"][:ops], stream["del_v"][:ops]

    for index in range(ops):
        batch = {"add": (ins_u[index], ins_v[index], None),
                 "remove": (del_u[index], del_v[index])}
        result = harness.run(index, lambda: session.apply(**batch))
        if result is None:
            continue
        exact = modularity(session.graph, result.membership)
        harness.check("batch_q_matches_exact_recompute",
                      abs(result.modularity - exact) <= Q_TOLERANCE)
        for j in range(2):
            harness.read(session, (index * 2 + j) * 7919 % n)

    rss = peak_rss_mb()
    base_u, base_v, base_w = stream["base_u"], stream["base_v"], stream["base_w"]
    keys = base_u * n + base_v
    keep = ~np.isin(keys, del_u.ravel() * n + del_v.ravel())
    rebuilt = from_edges(
        np.concatenate([base_u[keep], ins_u.ravel()]),
        np.concatenate([base_v[keep], ins_v.ravel()]),
        np.concatenate([base_w[keep], np.ones(ins_u.size)]),
        num_vertices=n,
    )
    final = session.graph
    harness.check("final_graph_matches_rebuild", all(
        np.array_equal(getattr(final, name), getattr(rebuilt, name))
        for name in ("indptr", "indices", "weights")
    ))
    harness.check("batches_counted", session.batches == ops)
    harness.check("final_edge_count", final.num_edges
                  == manifest["expected"]["num_edges"] + (51 - 13) * ops)
    return {
        "modularity": session.modularity,
        "membership_digest": _digest(session.membership),
        "final_num_edges": int(final.num_edges),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }


def serve_replay(harness: Harness, inputs: Path, manifest: dict, ops: int) -> dict:
    """Offline sequential replay of serve-mixed's writes (not timed).

    The server applies every write as a burst of one, so its final
    state must equal this replay through ``StreamSession.apply``.
    """
    with np.load(inputs / manifest["writes"]) as writes:
        wu, wv, delete = (writes[key][:ops] for key in ("u", "v", "delete"))
    graph = graph_io.load_graph(inputs / manifest["graph"])
    session = StreamSession(graph, StreamConfig.from_dict(manifest["config"]))
    for u, v, is_delete in zip(wu, wv, delete):
        side = np.array([u]), np.array([v])
        if is_delete:
            session.apply(remove=side)
        else:
            session.apply(add=(*side, None))
    return {
        "modularity": session.modularity,
        "num_edges": int(session.graph.num_edges),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("detect-mesh", "stream-web", "serve-replay"))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())
    harness = Harness(bool(args.trace))
    run = {"detect-mesh": detect_mesh, "stream-web": stream_web,
           "serve-replay": serve_replay}[args.workload]
    out = run(harness, inputs, manifest, args.ops)
    out.update(
        op_ms=harness.op_ms, traced_op_ms=harness.traced_ms,
        read_ms=harness.read_ms, attempted=harness.attempted,
        failed=harness.failed, errors=harness.errors[:5],
        checks=harness.checks,
    )
    if args.trace:
        roots = harness.recorder.roots
        out["layers"] = layers.layer_totals(roots)
        out["absent"] = harness.wrappers.absent
        out["traced_ops"] = len(roots)
        if args.trace_file:
            layers.write_trace(Path(args.trace_file), roots,
                               {"workload": args.workload})
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
