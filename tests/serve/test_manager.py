"""SessionManager: naming, LRU eviction, pinning, budgets, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import caveman, karate_club, ring
from repro.serve import ServeConfig, SessionManager, session_nbytes, snapshot_paths
from repro.stream import StreamConfig


@pytest.fixture
def manager(tmp_path):
    return SessionManager(
        ServeConfig(max_sessions=2, snapshot_dir=tmp_path / "snaps")
    )


def test_create_get_has(manager):
    session = manager.create("a", karate_club())
    assert manager.has("a")
    assert manager.get("a") is session
    assert not manager.has("b")
    with pytest.raises(KeyError):
        manager.get("b")
    with pytest.raises(KeyError):
        manager.create("a", karate_club())


def test_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(max_sessions=-1)
    with pytest.raises(ValueError):
        ServeConfig(max_bytes=0)
    with pytest.raises(TypeError):
        SessionManager(ServeConfig(), max_sessions=3)


@pytest.mark.parametrize("name", ["", ".hidden", "-dash", "a/b", "a b", "x" * 129])
def test_invalid_names_rejected(manager, name):
    with pytest.raises(ValueError):
        manager.create(name, karate_club())


def test_lru_eviction_snapshots_the_tail(manager):
    manager.create("a", ring(12))
    manager.create("b", ring(12))
    manager.create("c", ring(12))  # evicts "a", the LRU
    assert set(manager.sessions) == {"b", "c"}
    assert manager.snapshotted("a")
    assert manager.has("a")
    assert manager.evictions == 1
    # touching "b" makes "c" the LRU victim of the next create
    manager.get("b")
    manager.create("d", ring(12))
    assert set(manager.sessions) == {"b", "d"}


def test_get_restores_evicted_session(manager):
    session = manager.create("a", caveman(4, 6)[0])
    membership = session.membership.copy()
    manager.create("b", ring(12))
    manager.create("c", ring(12))
    assert "a" not in manager.sessions

    restored = manager.get("a")
    assert restored is not session
    np.testing.assert_array_equal(restored.membership, membership)
    assert manager.restored == 1
    assert "a" in manager.sessions


def test_byte_budget(tmp_path):
    manager = SessionManager(
        ServeConfig(max_sessions=0, max_bytes=1, snapshot_dir=tmp_path)
    )
    manager.create("a", ring(16))
    # one resident session never evicts itself, however large
    assert set(manager.sessions) == {"a"}
    manager.create("b", ring(16))
    assert len(manager.sessions) == 1
    assert "b" in manager.sessions


def test_pinned_sessions_survive_budget_and_reject_evict(manager):
    manager.create("a", ring(12))
    manager.pin("a")
    manager.create("b", ring(12))
    manager.create("c", ring(12))  # LRU is pinned "a": "b" is evicted instead
    assert set(manager.sessions) == {"a", "c"}

    manager.pin("c")
    manager.create("d", ring(12))  # every candidate pinned: soft overflow
    assert set(manager.sessions) == {"a", "c", "d"}

    with pytest.raises(RuntimeError, match="busy"):
        manager.evict("a")
    with pytest.raises(RuntimeError, match="busy"):
        manager.delete("a")
    manager.unpin("a")
    manager.unpin("c")
    manager.create("e", ring(12))
    assert "a" not in manager.sessions


def test_delete_removes_files(manager):
    manager.create("a", ring(12))
    manager.evict("a")
    npz, sidecar = snapshot_paths(manager.snapshot_dir / "a")
    assert npz.exists() and sidecar.exists()
    manager.delete("a")
    assert not npz.exists() and not sidecar.exists()
    assert not manager.has("a")
    with pytest.raises(KeyError):
        manager.delete("a")


def test_snapshot_keeps_resident(manager):
    manager.create("a", ring(12))
    path = manager.snapshot("a")
    assert path.exists()
    assert "a" in manager.sessions
    assert manager.snapshots == 1


def test_info_and_names(manager):
    manager.create("a", karate_club(), StreamConfig(screening="exact"))
    info = manager.info("a")
    assert info["resident"] is True
    assert info["num_vertices"] == 34
    assert info["fingerprint"] == StreamConfig(screening="exact").fingerprint()
    assert info["bytes"] == session_nbytes(manager.sessions["a"])

    manager.evict("a")
    info = manager.info("a")
    assert info["resident"] is False
    assert info["num_vertices"] == 34
    assert info["fingerprint"] == StreamConfig(screening="exact").fingerprint()
    assert manager.names() == ["a"]
    with pytest.raises(KeyError):
        manager.info("zzz")


def test_stats_contract(manager):
    manager.create("a", ring(12))
    manager.create("b", ring(12))
    manager.evict("a")
    stats = manager.stats()
    assert stats == {
        "resident": 1,
        "known": 2,
        "resident_bytes": session_nbytes(manager.sessions["b"]),
        "created": 2,
        "restored": 0,
        "evictions": 1,
        "budget_evictions": 0,
        "snapshots": 1,
        "eviction_pressure": False,
    }


def test_session_bytes_count_what_the_session_holds_and_build_nothing(manager):
    graph, _ = caveman(20, 8)
    session = manager.create("a", graph)
    n = graph.num_vertices
    for step in range(6):
        u = np.array([step, step + 80])
        result = session.apply(add=(u, (u + n // 3) % n, None))
        assert result.mode == "stream"
    info = manager.info("a")
    stats = manager.stats()
    graph = session.graph
    # Polling info and stats reads no flat array of the patched graph.
    assert graph.cached("indices") is None and graph.cached("weights") is None

    def owner(array):
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array

    held = [graph.row_indices, graph.row_weights, graph.row_start, graph.degrees]
    held += [
        graph.cached(name)
        for name in ("indptr", "vertex_of_edge", "weighted_degrees")
        if graph.cached(name) is not None
    ]
    held += [session.membership, session.result.membership]
    expected = sum({id(owner(a)): owner(a).nbytes for a in held}.values())
    assert info["bytes"] == stats["resident_bytes"] == expected
    # The row store counts at capacity, beyond the live entries.
    assert graph.row_indices.size > graph.num_stored_edges
    assert session.membership is session.result.membership  # counted once
