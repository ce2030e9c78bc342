"""Flight recorder + trace propagation through the serve stack.

Covers the tentpole acceptance paths: ``GET /v1/debug/flight``,
``X-Repro-Cid`` / ``X-Repro-Trace`` response headers (success and error
envelopes), exemplars resolvable back to a trace id, and one stitched
span tree per request whose spans all carry the request's trace id.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.flight import stitch_spans, validate_flight
from repro.obs.logs import StructuredLogger
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    SessionManager,
)


def _start(manager, **kwargs):
    kwargs.setdefault("logger", StructuredLogger("repro.serve", level="debug"))
    srv = ReproServer(manager, port=0, **kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: srv.run(ready=lambda _: ready.set()), daemon=True
    )
    thread.start()
    assert ready.wait(10), "server did not start"
    return srv, thread


@pytest.fixture
def server(tmp_path):
    manager = SessionManager(
        ServeConfig(
            max_sessions=4,
            snapshot_dir=tmp_path / "snaps",
            flight_dir=tmp_path / "flight",
            exemplar_seconds=0.0,  # tag every observation
        )
    )
    srv, thread = _start(manager)
    yield srv
    srv.request_shutdown()
    thread.join(10)
    assert not thread.is_alive()


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


def test_flight_endpoint_returns_valid_snapshot(client):
    client.health()
    flight = client.debug_flight()
    assert validate_flight(flight) == []
    assert flight["source"] == "ring"
    assert flight["entries"]


def test_every_response_carries_cid_and_trace_headers(client):
    client.health()
    first_cid, first_trace = client.last_cid, client.last_trace_id
    assert first_cid.startswith("req-")
    assert first_trace.startswith("tr-")
    client.stats()
    assert client.last_cid != first_cid
    assert client.last_trace_id != first_trace


def test_error_envelope_carries_cid_matching_server_log(server, client):
    with pytest.raises(ServeError) as excinfo:
        client.info("missing-session")
    cid = excinfo.value.cid
    assert cid is not None and cid.startswith("req-")
    assert cid == client.last_cid
    # The server logged the failing request under the exact same cid.
    logged = [
        line for line in server.log.lines()
        if line["event"] == "request_error" and line.get("cid") == cid
    ]
    assert logged and logged[0]["status"] == 404


def test_flight_endpoint_filters_by_trace_and_kind(client):
    client.create_session("f1", generate={"family": "ring", "n": 40})
    client.batch("f1", add=([0, 1], [5, 9]))
    trace_id = client.last_trace_id
    only = client.debug_flight(trace_id=trace_id, kinds="span")
    assert only["entries"], "no spans tagged with the request trace id"
    assert all(e["kind"] == "span" for e in only["entries"])
    assert all(e["trace_id"] == trace_id for e in only["entries"])


def test_flight_disabled_returns_404(tmp_path):
    manager = SessionManager(
        ServeConfig(snapshot_dir=tmp_path / "snaps", flight=False)
    )
    srv, thread = _start(manager)
    try:
        with ServeClient(port=srv.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.debug_flight()
            assert excinfo.value.code == "not_found"
            assert client.last_cid  # headers still present on errors
    finally:
        srv.request_shutdown()
        thread.join(10)


def test_health_and_stats_carry_uptime_and_build_stamp(client):
    health = client.health()
    assert health["ok"] is True
    assert health["uptime_seconds"] >= 0.0
    assert health["version"]
    assert health["build"]
    live = client.health(live=True)
    assert live["status"] == "alive"
    assert live["version"] == health["version"]
    stats = client.stats()
    assert stats["version"] == health["version"]
    assert stats["build"] == health["build"]
    assert stats["uptime_seconds"] >= health["uptime_seconds"]


def test_batch_exemplar_resolves_to_request_trace(client):
    client.create_session("ex1", generate={"family": "ring", "n": 40})
    client.batch("ex1", add=([0], [7]))
    trace_id = client.last_trace_id

    stats = client.stats()
    rows = stats["exemplars"]["repro_serve_apply_seconds"]
    tagged = [r for r in rows if r["exemplar"]["labels"].get("trace_id")]
    assert any(
        r["exemplar"]["labels"]["trace_id"] == trace_id for r in tagged
    ), f"no apply exemplar for {trace_id}: {rows}"

    # The same exemplar appears in the text exposition ...
    exposition = client.metrics()
    exemplar_lines = [
        line for line in exposition.splitlines()
        if " # {" in line and trace_id in line
    ]
    assert exemplar_lines, "exposition carries no exemplar for the trace"
    # ... and resolves to flight entries for that exact request.
    resolved = client.debug_flight(trace_id=trace_id)
    assert resolved["entries"]


def test_serve_request_yields_one_stitched_tree(server, client):
    # A frontier limit so tiny that every batch takes the full-pipeline
    # path, whose span tree runs request → batch → run → level →
    # optimization → sweep.
    client.create_session(
        "st1",
        generate={"family": "social", "n": 300, "m": 6, "seed": 3},
        config={"frontier_fraction_limit": 0.001},
    )
    result = client.batch("st1", add=([1, 2, 3], [50, 60, 70]))
    assert result["mode"] == "full"
    trace_id = client.last_trace_id

    # Live tracer view: one tree under the request.
    session = server.manager.get("st1")
    requests = [s for s in session.tracer.roots if s.name == "request"]
    assert len(requests) == 1
    root = requests[0]
    assert root.attributes["trace_id"] == trace_id
    assert root.attributes["route"] == "session/batch"
    (batch,) = root.children
    assert batch.name == "batch"
    assert batch.attributes["trace_id"] == trace_id
    (run,) = batch.find("run")
    assert run.find("level") and run.find("optimization")

    # Flight view: every span of the request carries its trace id, so
    # the ring's entries for that id stitch to the same story.
    flight = client.debug_flight(trace_id=trace_id, kinds="span")
    paths = {entry["path"] for entry in flight["entries"]}
    assert "request/batch/run/level/optimization" in paths
    trees = stitch_spans(flight["entries"])
    assert set(trees) == {trace_id}
    stitched = trees[trace_id]
    assert stitched.find("request") and stitched.find("batch")
    # Attached sweep spans reach the ring too — the crash-proof copy
    # of the tree is as complete as the live one.
    assert stitched.find("sweep")


def test_batch_enqueued_log_precedes_apply(server, client):
    client.create_session("q1", generate={"family": "ring", "n": 30})
    client.batch("q1", add=([2], [11]))
    cid = client.last_cid
    events = [
        line["event"] for line in server.log.lines()
        if line.get("cid") == cid
    ]
    assert "batch_enqueued" in events
    assert events.index("batch_enqueued") < events.index("batch_applied")


def test_watchdog_stall_writes_bundle(tmp_path, monkeypatch):
    manager = SessionManager(
        ServeConfig(
            snapshot_dir=tmp_path / "snaps",
            flight_dir=tmp_path / "flight",
            stall_seconds=0.2,
        )
    )
    srv, thread = _start(manager)
    try:
        import repro.stream.session as session_mod

        original = session_mod.StreamSession.apply

        def slow_apply(self, add=None, remove=None):
            import time as _time

            _time.sleep(0.6)  # longer than stall_seconds
            return original(self, add=add, remove=remove)

        monkeypatch.setattr(session_mod.StreamSession, "apply", slow_apply)
        with ServeClient(port=srv.port) as client:
            client.create_session("w1", generate={"family": "ring", "n": 30})
            client.batch("w1", add=([1], [9]))
        stalls = [
            line for line in srv.log.lines()
            if line["event"] == "worker_stalled"
        ]
        assert stalls, "watchdog never fired"
        bundles = list((tmp_path / "flight").glob("bundle-stall-*.tar.gz"))
        assert bundles, "stall fired but no bundle was written"
    finally:
        srv.request_shutdown()
        thread.join(10)
