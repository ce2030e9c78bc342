"""ReproServer end-to-end over real sockets: lifecycle, queries, errors,
coalescing, and the bit-identity acceptance test vs. an offline session."""

from __future__ import annotations

import json
import socket
import threading
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.graph.generators import caveman
from repro.serve import (
    BatchCoalescer,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    SessionManager,
)
from repro.stream import StreamConfig, StreamSession


@pytest.fixture
def server(tmp_path):
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


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes; return all the server writes until it closes."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


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
    # the server is still serving
    with ServeClient(port=server.port) as fresh:
        assert fresh.health()["ok"]


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
