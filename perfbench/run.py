"""perfbench: the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-web --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from ``--seed`` in a separate process,
runs the measured process(es), checks the outputs, prints a readable
report and, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the traced variant
and reports the per-layer metrics.

The amount of work is fixed by ``--seconds`` (operations per second are
calibrated per workload), so the same seed and seconds give the same
inputs and the same checked outputs on every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro package under {SRC}; run from a checkout "
             "of the repository")
sys.path.insert(0, str(SRC))  # serveload drives the server with ServeClient

import layers  # noqa: E402
import serveload  # noqa: E402

WORKLOADS = ("detect-mesh", "stream-web", "serve-mixed")
#: Operations per second of ``--seconds``, sized on a 2-vCPU machine
#: (Python 3.11, numpy 2.4) so that one run measures up to about that long.
OPS_PER_SECOND = {"detect-mesh": 1.44, "stream-web": 8.0, "serve-mixed": 128.0}
IMPORT_PROBES = 7
SERVE_SETUP_SPAWNS = 7
#: Seconds into serve-mixed's load after which the writer stops.
SERVE_DEADLINE_S = 120.0
PROCESS_TIMEOUT_S = 170.0
Q_TOLERANCE = 1e-9

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)

#: Rows whose self times add up to the traced operation's wall time.
ATTRIBUTION = (
    ("serve.http_ms", "serve.http"), ("serve.queue_ms", "serve.queue"),
    ("protocol.ms", "protocol"), ("coalesce.ms", "coalesce"),
    ("io.load_ms", "io"), ("build.patch_ms", "build"),
    ("frontier.ms", "frontier"), ("buckets.ms", "buckets"),
    ("plan.build_ms", "plan"), ("move.score_ms", "move"),
    ("opt.self_ms", "opt"), ("agg.ms", "agg"), ("audit.ms", "audit"),
    ("louvain.self_ms", "louvain"), ("session.self_ms", "session"),
    ("report.ms", "report"), ("unattributed_ms", "unattributed"),
)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # One thread per process: the loads are sized for a 2-vCPU machine.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_python(args: list[str], env: dict, timeout: float = PROCESS_TIMEOUT_S) -> str:
    """Run one helper process to completion; raise with its stderr on failure."""
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return proc.stdout


def source_record(manifest: dict) -> dict:
    """Seed, input digests and platform of one result."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "seed": manifest["seed"],
        "ops": manifest["ops"],
        "input_digests": manifest["digests"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------- #
def run_inproc(workload: str, inputs: Path, manifest: dict, ops: int,
               trace: bool, work: Path, env: dict, trace_file: Path) -> dict:
    out = work / "result.json"
    args = [str(HERE / "inproc.py"), "--workload", workload, "--inputs",
            str(inputs), "--ops", str(ops), "--trace", str(int(trace)),
            "--out", str(out)]
    if trace:
        args += ["--trace-file", str(trace_file)]
    run_python(args, env)
    result = json.loads(out.read_text())
    if workload == "detect-mesh" and not trace:
        result["setup_s"] = [
            float(run_python(["-c", IMPORT_PROBE], env, timeout=60))
            for _ in range(IMPORT_PROBES)
        ]
    return result


def inproc_metrics(result: dict) -> dict:
    op_ms = result["op_ms"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "p50_ms": (percentile(op_ms, 50), "ms"),
        "p90_ms": (percentile(op_ms, 90), "ms"),
        "read_p50_ms": (percentile(result["read_ms"], 50), "ms"),
        "read_p90_ms": (percentile(result["read_ms"], 90), "ms"),
        "writes_per_s": (1e3 * len(op_ms) / sum(op_ms), "1/s"),
        "modularity": (result["modularity"], "1"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def self_rows(totals: dict, n: int) -> dict:
    """Self ms per operation of every program layer in :data:`ATTRIBUTION`."""
    return {
        metric: 1e3 * totals.get(layer, layers.EMPTY_ROW)["self"] / n
        for metric, layer in ATTRIBUTION
        if not metric.startswith("serve.") and layer != "unattributed"
    }


def inproc_layers(result: dict) -> dict:
    totals = result["layers"]
    n = max(result["traced_ops"], 1)
    op = totals.get("op", layers.EMPTY_ROW)
    rows = self_rows(totals, n)
    harness = totals[layers.HARNESS]["self"]
    rows["unattributed_ms"] = 1e3 * (op["self"] + harness) / n
    rows["traced_op_ms"] = 1e3 * op["inclusive"] / n
    rows.update(_layer_counts(totals, n))
    rows["trace_overhead"] = (
        statistics.median(result["traced_op_ms"])
        / statistics.median(result["op_ms"]) - 1.0
    )
    for name in ("serve.http_ms", "serve.queue_ms", "serve.apply_ms",
                 "serve.read_wait_ms", "serve.read_service_ms"):
        rows[name] = 0.0
    return rows


def _layer_counts(totals: dict, n: int) -> dict:
    """Per-operation counts, ratios and the session's inclusive time."""
    def get(layer: str) -> dict:
        return totals.get(layer, layers.EMPTY_ROW)

    move = get("move")["counters"]
    sweeps_from = "session" if get("session")["calls"] else "louvain"
    by_call = get("coalesce")["by_call"]
    nets = by_call.get("repro.serve.server.BatchCoalescer.net", 0)
    adds = by_call.get("repro.serve.server.BatchCoalescer.add_batch", 0)
    return {
        "frontier.size": get("frontier")["counters"].get("size", 0) / n,
        "buckets.calls": get("buckets")["calls"] / n,
        "plan.builds": get("plan")["calls"] / n,
        "move.calls": get("move")["calls"] / n,
        "move.moved_frac": move.get("moved", 0) / max(move.get("vertices", 0), 1),
        "opt.sweeps": get(sweeps_from)["counters"].get("sweeps", 0) / n,
        "agg.calls": get("agg")["calls"] / n,
        "audit.calls": get("audit")["calls"] / n,
        "session.full_reruns": get("session")["counters"].get("full_rerun", 0),
        "coalesce.fold": adds / nets if nets else 0.0,
        "session.apply_ms": 1e3 * get("session")["inclusive"] / n,
    }


# --------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------- #
def run_serve(inputs: Path, manifest: dict, ops: int, trace: bool,
              work: Path, env: dict, trace_file: Path) -> dict:
    cpu = serveload.pin_to_one_cpu()
    graph = inputs / manifest["graph"]
    config = manifest["config"]
    writes, reads = serveload.load_inputs(inputs, manifest, ops)
    expected = dict(manifest["expected"])
    phases = {}
    setup_s = []
    setup_exit_codes = []
    if trace:
        # Untraced and traced servers on the same writes, in the order
        # plain, traced, traced, plain: a drift in machine speed cancels
        # out of the ratio of their write p50s (the tracing overhead).
        ops = ops // 4
        quarter = {key: value[:ops] for key, value in writes.items()}
        for tag in ("plain1", "traced1", "traced2", "plain2"):
            part = trace_file.with_suffix(f".{tag}") if "traced" in tag else None
            phases[tag] = serveload.run_phase(
                serveload.server_command(part), work, tag, env, graph, config,
                quarter, reads, expected, SERVE_DEADLINE_S / 4,
            )
            phases[tag]["trace_file"] = part
    else:
        cmd = serveload.server_command(None)
        for index in range(SERVE_SETUP_SPAWNS - 1):
            server = serveload.spawn(cmd, work, f"setup{index}", env, graph,
                                     config)
            setup_s.append(server.setup_s)
            setup_exit_codes.append(server.shutdown())
        phases["plain"] = serveload.run_phase(
            cmd, work, "plain", env, graph, config, writes, reads, expected,
            SERVE_DEADLINE_S,
        )
        setup_s.append(phases["plain"]["setup_s"])
    replay_out = work / "replay.json"
    run_python([str(HERE / "inproc.py"), "--workload", "serve-replay",
                "--inputs", str(inputs), "--ops", str(ops),
                "--out", str(replay_out)], env)
    replay = json.loads(replay_out.read_text())
    return {"phases": phases, "setup_s": setup_s, "replay": replay,
            "setup_exit_codes": setup_exit_codes, "cpu": cpu,
            "ops": ops, "num_deletes": int(writes["delete"][:ops].sum())}


def serve_checks(result: dict, manifest: dict) -> tuple[dict, int, int]:
    checks: dict[str, bool] = {}
    attempted = failed = 0
    ops = result["ops"]
    replay = result["replay"]
    final_edges = (manifest["expected"]["num_edges"] + ops
                   - 2 * result["num_deletes"])
    for tag, phase in result["phases"].items():
        load = phase["load"]
        info = phase["info"]
        attempted += len(load.write_ms) + len(load.read_ms)
        failed += sum(s != 200 for s in load.write_status) + load.read_failed
        checks[f"{tag}: every write returned 200"] = (
            len(load.write_status) == ops
            and all(s == 200 for s in load.write_status))
        checks[f"{tag}: applies equal writes"] = phase["applies"] == ops
        checks[f"{tag}: no coalesced requests"] = (
            phase["coalesced_requests"] == 0
            and all(c == 1 for c in load.coalesced))
        checks[f"{tag}: session batches"] = info.get("batches") == ops
        checks[f"{tag}: session num_edges"] = info.get("num_edges") == final_edges
        checks[f"{tag}: final Q equals sequential replay"] = (
            info.get("modularity") is not None
            and abs(info["modularity"] - replay["modularity"]) <= Q_TOLERANCE)
        checks[f"{tag}: community answers in [0, n)"] = load.read_ok
        checks[f"{tag}: server exit code 0"] = phase["exit_code"] == 0
    checks["replay reached the same edge count"] = replay["num_edges"] == final_edges
    checks["set-up servers exit code 0"] = all(
        code == 0 for code in result["setup_exit_codes"])
    return checks, attempted, failed


def serve_metrics(result: dict) -> dict:
    phase = result["phases"]["plain"]
    load = phase["load"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "p50_ms": (percentile(load.write_ms, 50), "ms"),
        "p90_ms": (percentile(load.write_ms, 90), "ms"),
        "read_p50_ms": (percentile(load.read_ms, 50), "ms"),
        "read_p90_ms": (percentile(load.read_ms, 90), "ms"),
        "writes_per_s": (len(load.write_ms) / (load.end - load.start), "1/s"),
        "modularity": (phase["info"]["modularity"], "1"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MiB"),
    }


def serve_layers(result: dict, trace_file: Path) -> dict:
    """Per-layer rows of the traced phases; merges their span files."""
    phases = result["phases"]
    traced = [phase for tag, phase in phases.items() if tag.startswith("traced")]
    plain_ms = [ms for tag, phase in phases.items() if tag.startswith("plain")
                for ms in phase["load"].write_ms]
    write_ms: list[float] = []
    roots: list = []
    sums = dict.fromkeys(("request_s", "request_count", "apply_s", "applies",
                          "read_request_s", "read_request_count"), 0.0)
    reports = []
    for phase in traced:
        load = phase["load"]
        write_ms += load.write_ms
        roots += [r for r in layers.read_trace(phase["trace_file"])
                  if r.start >= load.start and r.end <= load.end]
        for key in sums:
            sums[key] += phase[key]
        reports += json.loads(phase["trace_file"].read_text())["reports"]
        phase["trace_file"].unlink()
    trace_file.write_text(json.dumps({"reports": reports}))

    reads = [r for r in roots if r.layer == "read"]
    totals = layers.layer_totals([r for r in roots if r.layer != "read"])
    n = len(write_ms)
    mean_write_ms = sum(write_ms) / n
    request_ms = 1e3 * sums["request_s"] / max(sums["request_count"], 1)
    apply_ms = 1e3 * sums["apply_s"] / max(sums["applies"], 1)
    rows = self_rows(totals, n)
    rows["serve.http_ms"] = mean_write_ms - request_ms
    rows["serve.queue_ms"] = (request_ms - apply_ms - rows["protocol.ms"]
                              - rows["coalesce.ms"])
    rows["serve.apply_ms"] = apply_ms
    attributed = sum(rows[m] for m, layer in ATTRIBUTION if layer != "unattributed")
    rows["unattributed_ms"] = mean_write_ms - attributed
    rows["traced_op_ms"] = mean_write_ms
    read_service = 1e3 * sum(r.seconds for r in reads) / max(len(reads), 1)
    rows["serve.read_service_ms"] = read_service
    rows["serve.read_wait_ms"] = (
        1e3 * sums["read_request_s"] / max(sums["read_request_count"], 1)
        - read_service)
    rows.update(_layer_counts(totals, n))
    rows["trace_overhead"] = (
        statistics.median(write_ms) / statistics.median(plain_ms) - 1.0)
    return rows


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #
def measure_inproc(workload: str, inputs: Path, manifest: dict, ops: int,
                   trace: bool, work: Path, env: dict, trace_file: Path) -> dict:
    result = run_inproc(workload, inputs, manifest, ops, trace, work, env,
                        trace_file)
    return {
        "checks": result["checks"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "absent": result.get("absent", []),
        "outputs": {key: result[key] for key in
                    ("modularity", "membership_digest", "final_num_edges")
                    if key in result},
        "notes": [f"{len(result['op_ms'])} untraced and "
                  f"{len(result['traced_op_ms'])} traced operations, "
                  f"{len(result['read_ms'])} reads"],
        "rows": inproc_layers(result) if trace else None,
        "metrics": None if trace else inproc_metrics(result),
    }


def measure_serve(workload: str, inputs: Path, manifest: dict, ops: int,
                  trace: bool, work: Path, env: dict, trace_file: Path) -> dict:
    result = run_serve(inputs, manifest, ops, trace, work, env, trace_file)
    checks, attempted, failed = serve_checks(result, manifest)
    rows = serve_layers(result, trace_file) if trace else None
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in result["phases"].values() for e in p["load"].errors],
        "absent": _absent_from(trace_file) if trace else [],
        "outputs": {
            f"{tag} {key}": phase["info"].get(key)
            for tag, phase in result["phases"].items()
            for key in ("modularity", "batches", "num_edges")
        },
        "notes": [f"client, servers and replay pinned to CPU {result['cpu']}"]
        + [_reader_note(tag, phase["load"])
           for tag, phase in result["phases"].items()],
        "rows": rows,
        "metrics": None if trace else serve_metrics(result),
    }


def _reader_note(tag: str, load: serveload.Load) -> str:
    late = load.read_late_ms or [0.0]
    return (f"{tag}: {len(load.write_ms)} writes, {len(load.read_ms)} reads, "
            f"reader send lateness p50 {percentile(late, 50):.3f} ms, "
            f"max {max(late):.3f} ms")


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #
PER_LAYER_UNITS = {
    "frontier.size": "count", "buckets.calls": "count", "plan.builds": "count",
    "move.calls": "count", "move.moved_frac": "1", "opt.sweeps": "count",
    "agg.calls": "count", "audit.calls": "count", "session.full_reruns": "count",
    "coalesce.fold": "1", "trace_overhead": "1",
}


def print_attribution(rows: dict, absent: list[str]) -> None:
    total = rows["traced_op_ms"]
    print(f"{'layer':<16}{'self ms/op':>12}{'share':>8}")
    for metric, layer in ATTRIBUTION:
        value = rows[metric]
        print(f"{layer:<16}{value:>12.4f}{100 * value / total:>7.1f}%")
    summed = sum(rows[m] for m, _ in ATTRIBUTION)
    print(f"{'sum':<16}{summed:>12.4f}   traced op wall {total:.4f} ms")
    print(f"trace_overhead {rows['trace_overhead']:+.3%}")
    for call in absent:
        print(f"absent call site: {call}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    env = subprocess_env()
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    trace_file = WORK / "traces" / f"{args.workload}-s{args.seed}.trace.json"
    ops = max(2, round(OPS_PER_SECOND[args.workload] * args.seconds))
    measure = measure_serve if args.workload == "serve-mixed" else measure_inproc
    try:
        run_python([str(HERE / "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--ops", str(ops),
                    "--read-seconds", str(4 * args.seconds),
                    "--out", str(inputs)], env)
        manifest = json.loads((inputs / "manifest.json").read_text())
        outcome = measure(args.workload, inputs, manifest, ops,
                          bool(args.trace), work, env, trace_file)
        record = source_record(manifest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} ops={ops} "
          f"trace={args.trace} ({perf_counter() - started:.1f} s)")
    for name, ok in outcome["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    print("outputs " + json.dumps(outcome["outputs"], sort_keys=True))
    for note in outcome["notes"]:
        print(f"note: {note}")
    for error in outcome["errors"][:5]:
        print(f"error: {error}")
    if args.trace:
        print_attribution(outcome["rows"], outcome["absent"])
        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS.get(name, "ms")}
            for name, value in outcome["rows"].items()
        }
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in outcome["metrics"].items()}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    correct = all(outcome["checks"].values()) and outcome["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


def _absent_from(trace_file: Path) -> list[str]:
    data = json.loads(trace_file.read_text())
    absent = data["reports"][0]["meta"].get("absent", "")
    return [call for call in absent.split(",") if call]


if __name__ == "__main__":
    sys.exit(main())
