#!/usr/bin/env python
"""Smoke test for ``python -m repro serve`` — the CI ``serve-smoke`` job.

Spawns a real server subprocess on an ephemeral port, then drives the
documented lifecycle over the wire with :class:`repro.serve.ServeClient`:

1. create two named sessions (generated graphs, exact screening),
2. stream interleaved edge batches into both,
3. partition queries (community_of / members / top-k) — each answer
   names the ``batch`` it was read at, which includes every write
   acknowledged before the query was sent,
4. RunReport retrieval with the config fingerprint,
5. snapshot + evict, then a query that transparently restores,
6. error-code checks (404 / 409 / 400 paths) — every error response
   carries an ``X-Repro-Cid`` header the client surfaces — and a
   ``Content-Length`` over the cap answered 413 before its body is read,
7. /v1/metrics scrape — required series present with sane values, and
   slow-path histograms carry ``# {...}`` exemplars with trace ids,
8. /v1/debug/flight returns a validating ``repro.flight/1`` snapshot,
   and ``repro debug-bundle`` builds a tarball from the live server,
9. delete, shutdown, and a clean subprocess exit,
10. every structured log line the server emitted validates against the
    ``repro.log/1`` schema, with session_created / batch_applied present.

Exits 0 on success; any assertion or protocol error is fatal.  Run from
the repository root: ``python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.flight import stitch_spans, validate_flight  # noqa: E402
from repro.obs.logs import validate_log_line  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402
from repro.serve.server import MAX_BODY_BYTES  # noqa: E402

#: Series the scrape must expose after the mixed workload above.
REQUIRED_SERIES = (
    "repro_serve_requests_total",
    "repro_serve_request_seconds_bucket",
    "repro_serve_batch_requests_total",
    "repro_serve_applies_total",
    "repro_serve_coalesced_requests_total",
    "repro_serve_coalesce_fold_ratio",
    "repro_serve_apply_seconds_bucket",
    "repro_serve_queue_depth",
    "repro_serve_workers_busy",
    "repro_serve_sessions_created_total",
    "repro_serve_sessions_restored_total",
    "repro_serve_sessions_evicted_total",
    "repro_serve_snapshots_total",
    "repro_serve_sessions_resident",
    "repro_serve_resident_bytes",
    "repro_serve_errors_total",
    "repro_stream_batch_seconds_bucket",
    "repro_stream_frontier_fraction",
)


def series_value(text: str, name: str, **labels: str) -> float:
    """The value of one exposition line (label order-insensitive)."""
    for line in text.splitlines():
        if not line.startswith(name) or line.startswith("#"):
            continue
        # Exemplar'd lines end with " # {labels} value ts" — the series
        # value is whatever precedes that suffix.
        line = line.split(" # ", 1)[0]
        metric, _, value = line.rpartition(" ")
        base, _, label_str = metric.partition("{")
        if base != name:
            continue
        have = dict(re.findall(r'(\w+)="([^"]*)"', label_str))
        if all(have.get(k) == v for k, v in labels.items()):
            return float(value)
    raise AssertionError(f"series {name} {labels} not found in exposition")


def expect_error(code: str, fn) -> None:
    try:
        fn()
    except ServeError as exc:
        assert exc.code == code, f"expected {code}, got {exc.code}: {exc.message}"
        assert exc.cid and exc.cid.startswith("req-"), (
            f"error envelope for {code} lost its correlation id: {exc.cid!r}"
        )
        print(f"  error path ok: {code} (HTTP {exc.status}, cid {exc.cid})")
        return
    raise AssertionError(f"expected ServeError {code}, got success")


def main() -> int:
    snapshot_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    flight_dir = str(Path(snapshot_dir) / "flight")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--snapshot-dir", snapshot_dir, "--max-sessions", "4",
         "--flight-dir", flight_dir, "--exemplar-ms", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        cwd=REPO,
    )
    captured: list[str] = []
    try:
        # Structured JSON log lines (stderr) interleave with the listen
        # banner (stdout) in the merged pipe; scan until the banner.
        match = None
        for _ in range(50):
            line = proc.stdout.readline()
            if not line:
                break
            captured.append(line)
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match:
                break
        assert match, f"no listen line from server, got: {captured!r}"
        port = int(match.group(2))
        print(f"server up on port {port}")

        client = ServeClient(port=port)
        health = client.health()
        assert health["ok"] is True and health["status"] == "ready", health
        assert health["uptime_seconds"] >= 0.0, health
        assert health["version"] and health["build"], health
        live = client.health(live=True)
        assert live["ok"] is True and live["status"] == "alive", live
        assert client.last_cid and client.last_cid.startswith("req-")
        print(f"health ok: ready; liveness probe alive "
              f"(v{health['version']} build {health['build']})")

        # 1. two sessions
        left = client.create_session(
            "left", generate={"family": "caveman", "n": 60, "m": 6},
            config={"screening": "exact"},
        )
        right = client.create_session(
            "right", generate={"family": "social", "n": 400, "m": 5, "seed": 3},
            config={"screening": "local"},
        )
        assert left["num_vertices"] == 60
        assert right["num_vertices"] == 400
        print(f"sessions created: left Q={left['modularity']:.4f}, "
              f"right Q={right['modularity']:.4f}")

        # 2. interleaved batches
        for i in range(3):
            a = client.batch("left", add=([i], [30 + i], [1.0]))
            b = client.batch("right", add=([i * 5], [i * 7 + 1]),
                             remove=None)
            assert a["batch"] == i + 1 and b["batch"] == i + 1
            assert a["coalesced"] >= 1
        print(f"streamed 3 batches each: left Q={a['modularity']:.4f}, "
              f"right Q={b['modularity']:.4f}")

        # 3. queries, each answered at a batch no older than the last
        #    acknowledged write
        def read(name: str, verb: str, **params) -> dict:
            return client.request("GET", f"/sessions/{name}/{verb}",
                                  params=params)

        answers = [(read("left", "community", vertex=0), a)]
        community = answers[0][0]["community"]
        answers.append((read("left", "members", community=community), a))
        answers.append((read("left", "top", k=3, by="size"), a))
        answers.append((read("right", "top", k=2, by="volume"), b))
        for answer, write in answers:
            assert answer["batch"] >= write["batch"], (answer, write)
        members = answers[1][0]["members"]
        assert 0 in members
        top = answers[2][0]["communities"]
        assert len(top) == 3 and top[0]["size"] >= top[-1]["size"]
        assert len(answers[3][0]["communities"]) == 2
        print(f"queries ok: v0 in community {community} "
              f"({len(members)} members); top sizes "
              f"{[t['size'] for t in top]}; read at batches "
              f"{[answer['batch'] for answer, _ in answers]}")

        # 4. reports carry the config fingerprint
        report = client.report("left", which="last")["report"]
        assert report["result"]["batch"] == 3
        fingerprint = report["meta"]["fingerprint"]
        assert re.fullmatch(r"[0-9a-f]{12}", fingerprint)
        print(f"report ok: batch 3, fingerprint {fingerprint}")

        # 5. snapshot, evict, transparent restore
        snapshot = client.snapshot("left")
        assert Path(snapshot).exists()
        before = [client.community_of("left", v) for v in range(60)]
        client.evict("left")
        rows = {r["name"]: r["resident"] for r in client.list_sessions()}
        assert rows == {"left": False, "right": True}
        restored = read("left", "community", vertex=0)  # restores, locked
        assert restored["batch"] == a["batch"], restored
        after = [client.community_of("left", v) for v in range(60)]
        assert before == after, "restore changed the partition"
        stats = client.stats()
        assert stats["sessions"]["restored"] == 1
        assert stats["batches"]["requests"] == 6
        print(f"snapshot/evict/restore ok: stats {stats['sessions']}")

        # 6. error paths
        expect_error("session_not_found", lambda: client.info("ghost"))
        expect_error("session_exists",
                     lambda: client.create_session(
                         "left", generate={"family": "karate"}))
        expect_error("invalid_name",
                     lambda: client.create_session(
                         "no/slashes", generate={"family": "karate"}))
        expect_error("vertex_out_of_range",
                     lambda: client.community_of("left", 10 ** 9))
        expect_error("invalid_batch",
                     lambda: client.batch("left", remove=([0], [59])))
        with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
            raw.sendall(b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1))
            reply = b""
            while chunk := raw.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 "), head
        assert json.loads(body)["error"]["code"] == "body_too_large", body
        assert client.health()["ok"], "server stopped serving after a 413"
        print("  error path ok: body_too_large (HTTP 413, before the body)")

        # 7. metrics scrape: required series exist with sane values
        text = client.metrics()
        for series in REQUIRED_SERIES:
            assert series in text, f"missing series {series}"
        # 7 batch requests: 6 applied + the invalid_batch rejection, which
        # is counted on enqueue but never becomes an apply.
        assert series_value(text, "repro_serve_batch_requests_total") == 7
        assert series_value(text, "repro_serve_sessions_created_total") == 2
        assert series_value(text, "repro_serve_sessions_restored_total") == 1
        assert series_value(text, "repro_serve_sessions_evicted_total") == 1
        assert series_value(text, "repro_serve_snapshots_total") >= 1
        assert series_value(text, "repro_serve_sessions_resident") == 2
        assert series_value(text, "repro_serve_resident_bytes") > 0
        assert series_value(
            text, "repro_serve_errors_total", code="session_not_found") == 1
        assert series_value(
            text, "repro_serve_errors_total", code="body_too_large") == 1
        assert series_value(
            text, "repro_serve_apply_seconds_count", session="left") >= 1
        applies = series_value(text, "repro_serve_applies_total")
        coalesced = series_value(text, "repro_serve_coalesced_requests_total")
        assert applies + coalesced == 6, (applies, coalesced)
        assert series_value(
            text, "repro_serve_requests_total",
            route="session/batch", method="POST") == 7
        # With --exemplar-ms 0 every batch observation carries an
        # exemplar; the exposition suffixes its bucket line with one.
        exemplar_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_serve_apply_seconds_bucket")
            and " # {" in line and 'trace_id="tr-' in line
        ]
        assert exemplar_lines, "no exemplars in the apply histogram"
        stats = client.stats()
        assert stats["uptime_seconds"] >= 0.0 and stats["version"], stats
        exemplar_rows = stats["exemplars"]["repro_serve_apply_seconds"]
        trace_id = next(
            row["exemplar"]["labels"]["trace_id"]
            for row in exemplar_rows
            if row["exemplar"]["labels"].get("trace_id")
        )
        print(f"metrics ok: {len(REQUIRED_SERIES)} required series, "
              f"{applies:.0f} applies + {coalesced:.0f} coalesced, "
              f"exemplar → {trace_id}")

        # 8. flight recorder snapshot + debug bundle
        flight = client.debug_flight()
        problems = validate_flight(flight)
        assert not problems, problems
        assert flight["source"] == "ring" and flight["entries"]
        resolved = client.debug_flight(trace_id=trace_id, kinds="span")
        assert resolved["entries"], f"exemplar trace {trace_id} not in ring"
        trees = stitch_spans(resolved["entries"])
        assert trace_id in trees, (trace_id, sorted(trees))
        bundle_path = Path(snapshot_dir) / "smoke-bundle.tar.gz"
        bundle = subprocess.run(
            [sys.executable, "-m", "repro", "debug-bundle",
             "--port", str(port), "--flight-dir", flight_dir,
             "-o", str(bundle_path)],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=60,
        )
        assert bundle.returncode == 0, bundle.stderr
        assert bundle_path.exists()
        import tarfile

        with tarfile.open(bundle_path) as tar:
            names = set(tar.getnames())
            assert {"flight.json", "metrics.txt", "stats.json",
                    "MANIFEST.json"} <= names, names
            bundled = json.load(tar.extractfile("flight.json"))
        assert not validate_flight(bundled), "bundled flight invalid"
        print(f"flight ok: {len(flight['entries'])} ring entries, "
              f"trace {trace_id} stitches; bundle has {len(names)} pieces")

        # 9. delete and clean shutdown
        client.delete("right")
        assert [r["name"] for r in client.list_sessions()] == ["left"]
        client.shutdown()
        code = proc.wait(timeout=15)
        assert code == 0, f"server exited {code}"
        print("clean shutdown: exit 0")

        # 10. every structured log line validates against repro.log/1
        captured.extend(proc.stdout.readlines())
        records = []
        for line in captured:
            line = line.strip()
            if not line.startswith("{"):
                continue  # human-readable banner lines
            record = json.loads(line)
            problems = validate_log_line(record)
            assert not problems, (problems, record)
            records.append(record)
        events = [r["event"] for r in records]
        for required in ("server_started", "session_created",
                         "batch_applied", "snapshot_written",
                         "session_evicted", "request_error",
                         "session_deleted", "server_stopping"):
            assert required in events, f"missing log event {required}"
        applied = next(r for r in records if r["event"] == "batch_applied")
        assert applied["span_path"].startswith("batch[")
        assert applied["cids"], "batch_applied lost its correlation ids"
        print(f"logs ok: {len(records)} lines validate, "
              f"{len(set(events))} distinct events")
        print("SERVE SMOKE OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        rest = proc.stdout.read()
        if rest.strip():
            print("--- server output ---")
            print(rest.strip())


if __name__ == "__main__":
    sys.exit(main())
