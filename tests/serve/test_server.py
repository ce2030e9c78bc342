"""ReproServer end-to-end over real sockets: lifecycle, queries, errors,
coalescing, and the bit-identity acceptance test vs. an offline session."""

from __future__ import annotations

import itertools
import json
import logging
import socket
import threading
from http.client import HTTPConnection
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.generators import caveman
from repro.serve import (
    BatchCoalescer,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    SessionManager,
)
from repro.serve.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES
from repro.stream import StreamConfig, StreamSession
from repro.stream import session as session_module


def _start_server(tmp_path) -> tuple[ReproServer, threading.Thread]:
    manager = SessionManager(
        ServeConfig(max_sessions=4, snapshot_dir=tmp_path / "snaps")
    )
    srv = ReproServer(manager, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: srv.run(ready=lambda _: ready.set()), daemon=True
    )
    thread.start()
    assert ready.wait(10), "server did not start"
    return srv, thread


@pytest.fixture
def server(tmp_path):
    srv, thread = _start_server(tmp_path)
    yield srv
    srv.request_shutdown()
    thread.join(10)
    assert not thread.is_alive()


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


def _edges_payload(graph):
    u, v, w = graph.edge_list(unique=True)
    return {
        "u": u.tolist(),
        "v": v.tolist(),
        "w": w.tolist(),
        "num_vertices": graph.num_vertices,
    }


def _server_membership(client, name, n):
    return np.array(
        [client.community_of(name, v) for v in range(n)], dtype=np.int64
    )


# --------------------------------------------------------------------- #
# Lifecycle and queries
# --------------------------------------------------------------------- #
def test_lifecycle_and_queries(client):
    graph, _ = caveman(5, 6)
    info = client.create_session(
        "alpha", edges=_edges_payload(graph), config={"screening": "exact"}
    )
    assert info["num_vertices"] == 30
    assert info["resident"] is True

    offline = StreamSession(graph, StreamConfig(screening="exact"))
    assert info["modularity"] == offline.modularity

    result = client.batch("alpha", add=([0, 6], [12, 18], [1.0, 2.0]))
    offline_result = offline.apply(
        add=(np.array([0, 6]), np.array([12, 18]), np.array([1.0, 2.0]))
    )
    assert result["batch"] == 1
    assert result["modularity"] == offline_result.modularity
    assert result["mode"] == offline_result.mode

    membership = _server_membership(client, "alpha", 30)
    np.testing.assert_array_equal(membership, offline.membership)

    community = client.community_of("alpha", 3)
    members = client.members("alpha", community)
    assert members == np.flatnonzero(offline.membership == community).tolist()

    top = client.top("alpha", 3, by="size")
    expected = offline.top_k_communities(3, by="size")
    assert [(t["community"], t["size"]) for t in top] == [
        (c, int(s)) for c, s in expected
    ]

    report = client.report("alpha", which="last")["report"]
    assert report["result"]["batch"] == 1
    assert report["meta"]["fingerprint"] == offline.config.fingerprint()
    everything = client.report("alpha", which="all")
    assert everything["initial"]["meta"]["fingerprint"] == offline.config.fingerprint()
    assert len(everything["batches"]) == 1


def test_snapshot_evict_restore_round_trip(client):
    graph, _ = caveman(4, 6)
    client.create_session("s", edges=_edges_payload(graph))
    client.batch("s", add=([0], [12], [2.0]))
    before = _server_membership(client, "s", 24)
    q_before = client.info("s")["modularity"]

    client.evict("s")
    rows = {row["name"]: row for row in client.list_sessions()}
    assert rows["s"]["resident"] is False

    # transparent restore on first touch
    after = _server_membership(client, "s", 24)
    np.testing.assert_array_equal(before, after)
    assert client.info("s")["modularity"] == q_before
    assert client.stats()["sessions"]["restored"] == 1


def test_corrupt_snapshot_answers_every_request(server, tmp_path):
    """A session whose snapshot was corrupted while evicted: every batch
    and read on it gets an error answer (no hang, no dead batch worker),
    and the other sessions are still served."""
    from .test_snapshot import CORRUPTIONS, corrupt_snapshot

    graph, _ = caveman(4, 5)
    snaps = str(tmp_path / "snaps")
    with ServeClient(port=server.port, timeout=20) as client:
        client.create_session("good", edges=_edges_payload(graph))
        for i, name in enumerate(sorted(CORRUPTIONS)):
            bad = f"bad{i}"
            client.create_session(bad, edges=_edges_payload(graph))
            client.batch(bad, add=([0], [10], [1.0]))
            client.evict(bad)
            corrupt_snapshot(tmp_path / "snaps" / bad, name)
            for _ in range(2):  # the second one finds the worker alive
                with pytest.raises(ServeError) as excinfo:
                    client.batch(bad, add=([1], [11], [1.0]))
                assert excinfo.value.code == "server_error", name
                assert "cannot restore session" in excinfo.value.message, name
                assert snaps not in excinfo.value.message, name
            with pytest.raises(ServeError) as excinfo:
                client.community_of(bad, 0)
            assert excinfo.value.status == 500, name
            # The body names no server path; the log line has the detail.
            assert snaps not in excinfo.value.message, name
            result = client.batch("good", add=([i % 20], [(i + 7) % 20], [1.0]))
            assert result["batch"] == i + 1
        assert client.health()["ok"]


def test_error_codes(client):
    graph, _ = caveman(3, 5)
    client.create_session("e", edges=_edges_payload(graph))
    cases = [
        (lambda: client.create_session("e", generate={"family": "karate"}),
         "session_exists"),
        (lambda: client.create_session("bad/../name", generate={"family": "karate"}),
         "invalid_name"),
        (lambda: client.create_session("nograph"), "bad_request"),
        (lambda: client.community_of("ghost", 0), "session_not_found"),
        (lambda: client.batch("ghost", add=([0], [1])), "session_not_found"),
        (lambda: client.delete("ghost"), "session_not_found"),
        (lambda: client.community_of("e", 10 ** 6), "vertex_out_of_range"),
        (lambda: client.batch("e", remove=([0], [13])), "invalid_batch"),
        (lambda: client.top("e", 3, by="degree"), "bad_request"),
        (lambda: client.report("e", which="everything"), "bad_request"),
        (lambda: client.request("POST", "/sessions/e/community"),
         "method_allowed_check"),
        (lambda: client.request("GET", "/nope"), "not_found"),
    ]
    for fn, code in cases:
        with pytest.raises(ServeError) as excinfo:
            fn()
        if code == "method_allowed_check":
            assert excinfo.value.code == "method_not_allowed"
            assert excinfo.value.status == 405
        else:
            assert excinfo.value.code == code


def _raw_request(server, method, target, body):
    """One request with a raw (possibly invalid) body; returns (status, json)."""
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request(
            method, target, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_malformed_json_body_is_bad_request_envelope(server):
    for body in (b"{not json", b"[1, 2, 3]", b'"just a string"'):
        status, payload = _raw_request(server, "POST", "/v1/sessions", body)
        assert status == 400, body
        assert payload["error"]["code"] == "bad_request", body
        assert payload["error"]["message"]


@pytest.mark.parametrize("k", ["abc", "1.5"])
def test_top_with_non_integer_k_is_bad_request(server, client, k):
    graph, _ = caveman(3, 5)
    client.create_session("t", edges=_edges_payload(graph))
    status, payload = _raw_request(server, "GET", f"/v1/sessions/t/top?k={k}", None)
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert "'k'" in payload["error"]["message"]
    # Without k the default of 10 still applies (3 communities here).
    status, payload = _raw_request(server, "GET", "/v1/sessions/t/top", None)
    assert status == 200
    assert len(payload["communities"]) == 3


def test_unknown_algo_on_create_is_bad_request_envelope(server, client):
    with pytest.raises(ServeError) as excinfo:
        client.create_session(
            "w", generate={"family": "karate"}, config={"algo": "walktrap"}
        )
    assert excinfo.value.code == "bad_request"
    assert "walktrap" in excinfo.value.message
    # the documented envelope, not a 500
    status, payload = _raw_request(
        server,
        "POST",
        "/v1/sessions",
        json.dumps(
            {"name": "w2", "generate": {"family": "karate"},
             "config": {"algo": "walktrap"}}
        ).encode(),
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert server.stats.errors >= 2


def test_session_config_with_retired_shard_mode(client):
    """Stored session configs may still name the retired sharded engine.

    Its results were bit-identical to louvain's, so they create a
    louvain session, with or without the color-mode era's ``shard.mode``.
    """
    shard = {"pool": "inline", "workers": 2}
    louvain = StreamConfig().fingerprint()
    for name, stored in (("old", shard), ("sync", {**shard, "mode": "sync"})):
        info = client.create_session(
            name, generate={"family": "karate"},
            config={"algo": "sharded", "shard": stored},
        )
        assert info["fingerprint"] == louvain  # the default algo="louvain"
        assert client.batch(name, add=([0], [9]))["batch"] == 1
    with pytest.raises(ServeError) as excinfo:
        client.create_session(
            "color", generate={"family": "karate"},
            config={"algo": "sharded", "shard": {**shard, "mode": "color"}},
        )
    assert excinfo.value.code == "bad_request"
    assert "'color' was retired" in excinfo.value.message


@pytest.mark.parametrize("algo", ["leiden", "lpa"])
def test_algo_flows_through_session_create(client, algo):
    graph, _ = caveman(4, 6)
    client.create_session(
        "a", edges=_edges_payload(graph), config={"algo": algo}
    )
    offline = StreamSession(graph, StreamConfig(algo=algo))
    np.testing.assert_array_equal(
        _server_membership(client, "a", 24), offline.membership
    )
    result = client.batch("a", add=([0], [12], [2.0]))
    offline_result = offline.apply(
        add=(np.array([0]), np.array([12]), np.array([2.0]))
    )
    assert result["modularity"] == offline_result.modularity
    report = client.report("a", which="initial")["report"]
    assert report["meta"]["config"]["algo"] == algo
    assert report["meta"]["fingerprint"] == offline.config.fingerprint()

    # algo survives the snapshot/evict/restore round trip
    client.evict("a")
    np.testing.assert_array_equal(
        _server_membership(client, "a", 24), offline.membership
    )


def test_stats_contract(client):
    client.create_session("s", generate={"family": "karate"})
    client.batch("s", add=([0], [20]))
    stats = client.stats()
    assert stats["coalesce"] is True
    assert stats["requests"] > 0
    assert stats["batches"]["requests"] == 1
    assert stats["batches"]["applies"] == 1
    assert stats["batches"]["coalesced_requests"] == 0
    assert stats["batches"]["edges_added"] == 1
    assert stats["batches"]["apply_seconds"] > 0
    assert stats["sessions"]["resident"] == 1
    assert stats["queues"] == {"s": 0}


def test_invalid_batch_rejected_without_poisoning_the_burst(client):
    graph, _ = caveman(3, 5)
    client.create_session("s", edges=_edges_payload(graph))
    with pytest.raises(ServeError) as excinfo:
        client.batch("s", remove=([0], [12]))  # nonexistent cross-cave edge
    assert excinfo.value.code == "invalid_batch"
    # the session still works
    result = client.batch("s", add=([0], [5]))
    assert result["batch"] == 1


def test_batch_values_a_cast_would_change_are_invalid_batch(client):
    graph, _ = caveman(3, 5)
    client.create_session("s", edges=_edges_payload(graph))
    before = client.info("s")
    for add in (
        {"u": [1.7], "v": [5]},
        {"u": [0, True], "v": [5, 6]},
        {"u": [0], "v": [5], "w": [float("nan")]},  # the client writes NaN
    ):
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", "/sessions/s/batch", body={"add": add})
        assert excinfo.value.code == "invalid_batch", add
    assert client.info("s") == before
    with pytest.raises(ServeError) as excinfo:
        client.create_session("t", edges={"u": [0, 1.5], "v": [1, 2]})
    assert excinfo.value.code == "bad_request"


def test_session_create_with_a_nan_weight_is_bad_request(client):
    with pytest.raises(ServeError) as excinfo:
        client.create_session("n", edges={"u": [0, 1], "v": [1, 2], "w": [1.0, float("nan")]})
    assert excinfo.value.status == 400
    assert excinfo.value.code == "bad_request"
    assert "finite" in excinfo.value.message


@pytest.mark.parametrize("name", ["edges.txt", "head.graph", "matrix.mtx"])
def test_session_create_from_a_bad_file_never_quotes_it(server, tmp_path, name):
    from ..graph.test_io_failures import MARKED_FILES, MARKER

    path = tmp_path / name
    path.write_text(MARKED_FILES[name][0])
    body = json.dumps({"name": "leak", "path": str(path)}).encode()
    status, payload = _raw_request(server, "POST", "/v1/sessions", body)
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert str(path) in payload["error"]["message"]
    assert MARKER not in json.dumps(payload)


def test_session_create_from_a_file_with_an_id_beyond_int64_is_bad_request(server, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0 1\n99999999999999999999999 2\n")
    body = json.dumps({"name": "big", "path": str(path)}).encode()
    status, payload = _raw_request(server, "POST", "/v1/sessions", body)
    assert status == 400
    assert payload["error"] == {
        "code": "bad_request",
        "message": f"cannot load graph: {path}, line 2: vertex ids must fit in 64 bits",
    }


def test_create_builds_its_graph_off_the_event_loop(server, tmp_path, monkeypatch):
    from repro.graph import io as graph_io
    from repro.graph.io import write_edge_list

    path = tmp_path / "caves.txt"
    write_edge_list(caveman(4, 5)[0], path)
    loading, release = threading.Event(), threading.Event()
    load_graph = graph_io.load_graph

    def slow_load(where):
        loading.set()
        assert release.wait(30)
        return load_graph(where)

    monkeypatch.setattr(graph_io, "load_graph", slow_load)
    created = {}

    def create():
        with ServeClient(port=server.port) as c:
            created["info"] = c.create_session("slow", path=str(path))

    creator = threading.Thread(target=create)
    creator.start()
    try:
        assert loading.wait(10)
        # The load is pending on an executor thread; the loop still answers.
        with ServeClient(port=server.port, timeout=10) as c:
            assert c.health(live=True)["ok"]
        assert creator.is_alive() and "info" not in created
    finally:
        release.set()
        creator.join(30)
    assert created["info"]["num_vertices"] == 20


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes; return all the server writes until it closes."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _assert_still_serving(server, errors: int) -> None:
    """A fresh connection is served, and /v1/stats counted ``errors``."""
    with ServeClient(port=server.port) as fresh:
        assert fresh.health()["ok"]
        assert fresh.stats()["errors"] == errors


@pytest.mark.parametrize("length", [b"-5", b"abc"])
def test_invalid_content_length_is_bad_request_and_closes(server, length):
    # The body is a whole request of its own: a server that read the
    # header as 0 would answer it as a second request.
    smuggled = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
    data = _raw_exchange(
        server,
        b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\nContent-Length: "
        + length + b"\r\n\r\n" + smuggled,
    )
    assert data.count(b"HTTP/1.1 ") == 1, data
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert json.loads(body)["error"]["code"] == "bad_request"
    _assert_still_serving(server, 1)


def _assert_refused(data: bytes, status: int, code: str) -> None:
    """One error envelope with ``status`` and ``code``, then a close."""
    assert data.count(b"HTTP/1.1 ") == 1, data[:200]
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status), head
    assert b"Connection: close" in head
    assert json.loads(body)["error"]["code"] == code


def test_header_line_over_the_limit_is_431_and_closes(server):
    data = _raw_exchange(
        server,
        b"GET /v1/health HTTP/1.1\r\nHost: x\r\nX-Pad: "
        + b"a" * (MAX_LINE_BYTES + 1) + b"\r\n\r\n",
    )
    _assert_refused(data, 431, "headers_too_large")
    _assert_still_serving(server, 1)


@pytest.mark.parametrize(
    "count, status", [(MAX_HEADERS, 200), (MAX_HEADERS + 1, 431), (20_000, 431)]
)
def test_header_count_over_the_limit_is_431_and_closes(server, count, status):
    # The last header closes the connection, so a served request ends it too.
    headers = b"".join(b"X-H%d: 1\r\n" % i for i in range(count - 1))
    data = _raw_exchange(
        server,
        b"GET /v1/health HTTP/1.1\r\n" + headers + b"Connection: close\r\n\r\n",
    )
    if status == 200:
        assert data.startswith(b"HTTP/1.1 200 "), data[:200]
        _assert_still_serving(server, 0)
    else:
        _assert_refused(data, 431, "headers_too_large")
        _assert_still_serving(server, 1)


@pytest.mark.parametrize(
    "length, body",
    [
        # No body follows: a server that waited for it would never answer
        # (the exchange's socket timeout fails the test).
        (b"%d" % (MAX_BODY_BYTES + 1), b""),
        (b"9" * 5000, b""),  # more digits than int() converts
        # A client still uploading: closing on its unread bytes would
        # reset the connection before it reads the answer.
        (b"%d" % (MAX_BODY_BYTES + 1), b"x" * (4 << 20)),
    ],
    ids=["no-body", "overlong-digits", "uploading"],
)
def test_content_length_over_the_cap_is_413_before_the_body_is_read(
    server, length, body
):
    data = _raw_exchange(
        server,
        b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\nContent-Length: "
        + length + b"\r\n\r\n" + body,
    )
    _assert_refused(data, 413, "body_too_large")
    _assert_still_serving(server, 1)


def test_shutdown_lets_open_connections_wind_down(tmp_path, caplog):
    """An idle keep-alive connection and one draining a refused upload
    end at shutdown; a connection task cancelled at loop exit instead
    makes asyncio log a traceback."""
    srv, thread = _start_server(tmp_path)
    idle = ServeClient(port=srv.port)
    assert idle.health()["ok"]
    uploading = socket.create_connection(("127.0.0.1", srv.port), timeout=10)
    uploading.sendall(
        b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
        % (MAX_BODY_BYTES + 1) + b"x" * 4096
    )
    reply = b""
    while b"\r\n\r\n" not in reply:
        reply += uploading.recv(65536)
    assert reply.startswith(b"HTTP/1.1 413 ")
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        srv.request_shutdown()
        thread.join(10)
    idle.close()
    uploading.close()
    assert not thread.is_alive()
    assert not [r for r in caplog.records if r.name == "asyncio"], caplog.text


# --------------------------------------------------------------------- #
# Acceptance: two concurrent sessions, interleaved batches, final state
# bit-identical to an offline session fed the same coalesced groups.
# --------------------------------------------------------------------- #
def test_two_concurrent_sessions_match_offline_replay(server):
    graphs = {"left": caveman(5, 6)[0], "right": caveman(6, 5)[0]}
    config = {"screening": "exact"}

    setup = ServeClient(port=server.port)
    for name, graph in graphs.items():
        setup.create_session(name, edges=_edges_payload(graph), config=config)

    # 4 workers x 6 requests, interleaved across both sessions.  Adds
    # only, with integer weights: the fold is order-independent, so the
    # response 'batch' id fully determines each apply's net batch.
    sent = {"left": [], "right": []}
    lock = threading.Lock()

    def worker(wid: int) -> None:
        local = ServeClient(port=server.port)
        for j in range(6):
            name = "left" if (wid + j) % 2 == 0 else "right"
            n = graphs[name].num_vertices
            u = (wid * 7 + j * 3) % n
            v = (u + 2 + wid) % n
            response = local.batch(name, add=([u], [v], [1.0]))
            with lock:
                sent[name].append((response["batch"], u, v))
        local.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for name, graph in graphs.items():
        offline = StreamSession(graph, StreamConfig(screening="exact"))
        groups: dict[int, list[tuple[int, int]]] = {}
        for batch_id, u, v in sent[name]:
            groups.setdefault(batch_id, []).append((u, v))
        assert sorted(groups) == list(range(1, len(groups) + 1))
        for batch_id in sorted(groups):
            bc = BatchCoalescer(offline.graph)
            for u, v in groups[batch_id]:
                bc.add_batch(add=([u], [v], [1.0]))
            add, remove = bc.net()
            offline.apply(add=add, remove=remove)

        n = graph.num_vertices
        membership = _server_membership(setup, name, n)
        np.testing.assert_array_equal(membership, offline.membership)
        info = setup.info(name)
        assert info["modularity"] == offline.modularity
        assert info["batches"] == len(groups)
    setup.close()


def test_reads_do_not_wait_for_an_apply_in_flight(server, client):
    """Held mid-apply (after the batch counter moved, before the new
    partition exists), reads still answer at once, from the last view."""
    graph, _ = caveman(5, 6)
    client.create_session("busy", edges=_edges_payload(graph))
    before = _server_membership(client, "busy", 30)
    entered, release = threading.Event(), threading.Event()
    real = session_module.delta_frontier

    def held(*args, **kwargs):
        entered.set()
        assert release.wait(30)
        return real(*args, **kwargs)

    acks = []
    with mock.patch.object(session_module, "delta_frontier", held):
        def write() -> None:
            with ServeClient(port=server.port) as writer:
                acks.append(writer.batch("busy", add=([0], [15], [1.0])))

        thread = threading.Thread(target=write)
        thread.start()
        try:
            assert entered.wait(30)
            with ServeClient(port=server.port, timeout=10) as reader:
                answers = [
                    reader.request("GET", "/sessions/busy/community",
                                   params={"vertex": v})
                    for v in range(30)
                ]
                top = reader.request("GET", "/sessions/busy/top", params={"k": 2})
        finally:
            release.set()
            thread.join(30)
    assert not thread.is_alive()
    assert [a["batch"] for a in answers] == [0] * 30
    assert [a["community"] for a in answers] == before.tolist()
    assert top["batch"] == 0
    assert acks[0]["batch"] == 1
    assert client.request(
        "GET", "/sessions/busy/members", params={"community": 0}
    )["batch"] == 1


# --------------------------------------------------------------------- #
# Acceptance: lock-free reads see their writes.  One writer sends
# single-edge writes, each its own apply; one reader sends community,
# members and top queries on a drawn schedule.  Every answer equals an
# offline replay at the answer's batch, that batch is at least the last
# one acknowledged before the read was sent, and it never decreases.
# --------------------------------------------------------------------- #
_RYW_GRAPH = caveman(6, 5)[0]
_ryw_sessions = itertools.count()


@st.composite
def _writes_and_reads(draw):
    """(writes, reads): single-edge writes valid in order, and reads
    ``(kind, argument, gate)`` each sent once ``gate`` writes are acked."""
    n = _RYW_GRAPH.num_vertices
    u, v, _ = _RYW_GRAPH.edge_list()
    edges = set(zip(u.tolist(), v.tolist()))
    writes = []
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())
    for a, b, delete in draw(st.lists(steps, min_size=1, max_size=10)):
        pair = (min(a, b), max(a, b))
        if delete and pair in edges:
            edges.discard(pair)
            writes.append(("remove", a, b))
        else:
            edges.add(pair)
            writes.append(("add", a, b))
    kinds = st.sampled_from(["community", "members", "top_size", "top_volume"])
    reads = draw(st.lists(
        st.tuples(kinds, st.integers(0, n - 1), st.integers(0, len(writes))),
        min_size=1, max_size=16,
    ))
    return writes, reads


def _read(client, name: str, kind: str, arg: int) -> dict:
    if kind == "community":
        return client.request(
            "GET", f"/sessions/{name}/community", params={"vertex": arg}
        )
    if kind == "members":
        return client.request(
            "GET", f"/sessions/{name}/members", params={"community": arg}
        )
    by = kind.removeprefix("top_")
    return client.request(
        "GET", f"/sessions/{name}/top", params={"k": 4, "by": by}
    )


def _expected(state: tuple, kind: str, arg: int) -> dict:
    """The answer for ``(membership, weighted degrees)``, by plain NumPy."""
    membership, degrees = state
    if kind == "community":
        return {"vertex": arg, "community": int(membership[arg])}
    if kind == "members":
        members = np.flatnonzero(membership == arg).tolist()
        return {"community": arg, "size": len(members), "members": members,
                "truncated": False}
    by = kind.removeprefix("top_")
    sizes = np.bincount(membership)
    scores = sizes.astype(np.float64) if by == "size" else np.bincount(
        membership, weights=degrees, minlength=sizes.size
    )
    present = np.flatnonzero(sizes)
    top = present[np.lexsort((present, -scores[present]))][:4]
    return {"by": by, "communities": [
        {"community": int(c), by: int(sizes[c]) if by == "size" else float(scores[c])}
        for c in top
    ]}


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_writes_and_reads())
def test_lock_free_reads_see_their_writes(server, case):
    writes, reads = case
    name = f"ryw{next(_ryw_sessions)}"
    with ServeClient(port=server.port) as setup:
        setup.create_session(name, edges=_edges_payload(_RYW_GRAPH))
    progress = threading.Condition()
    state = {"acked": 0, "done": False}
    answers = []  # (kind, arg, last acked batch when sent, payload)
    failures = []

    def writer() -> None:
        try:
            with ServeClient(port=server.port) as client:
                for i, (side, a, b) in enumerate(writes, start=1):
                    if side == "add":
                        response = client.batch(name, add=([a], [b], [1.0]))
                    else:
                        response = client.batch(name, remove=([a], [b]))
                    assert (response["batch"], response["coalesced"]) == (i, 1)
                    with progress:
                        state["acked"] = i
                        progress.notify_all()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
        finally:
            with progress:
                state["done"] = True
                progress.notify_all()

    def reader() -> None:
        try:
            with ServeClient(port=server.port) as client:
                for kind, arg, gate in reads:
                    with progress:
                        progress.wait_for(
                            lambda: state["acked"] >= gate or state["done"]
                        )
                        floor = state["acked"]
                    answers.append((kind, arg, floor, _read(client, name, kind, arg)))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert len(answers) == len(reads)

    # The session's own state after each batch, not its published views:
    # the reference must not share the mechanism under test.
    offline = StreamSession(_RYW_GRAPH, StreamConfig())
    states = [(offline.membership.copy(), offline.graph.weighted_degrees.copy())]
    for side, a, b in writes:
        if side == "add":
            offline.apply(add=(np.array([a]), np.array([b]), np.array([1.0])))
        else:
            offline.apply(remove=(np.array([a]), np.array([b])))
        states.append((offline.membership.copy(), offline.graph.weighted_degrees.copy()))

    seen = 0
    for kind, arg, floor, payload in answers:
        batch = payload.pop("batch")
        assert floor <= batch <= len(writes)
        assert batch >= seen  # one connection never reads backwards
        seen = batch
        assert payload == _expected(states[batch], kind, arg)


def test_coalescing_off_applies_each_request(tmp_path):
    manager = SessionManager(
        ServeConfig(snapshot_dir=tmp_path / "s", coalesce=False)
    )
    srv = ReproServer(manager, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: srv.run(ready=lambda _: ready.set()), daemon=True
    )
    thread.start()
    assert ready.wait(10)
    try:
        client = ServeClient(port=srv.port)
        client.create_session("s", generate={"family": "caveman", "n": 40, "m": 5})
        for i in range(4):
            response = client.batch("s", add=([i], [i + 10]))
            assert response["coalesced"] == 1
        stats = client.stats()
        assert stats["coalesce"] is False
        assert stats["batches"]["applies"] == 4
        client.shutdown()
    finally:
        srv.request_shutdown()
        thread.join(10)
