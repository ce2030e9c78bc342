"""Snapshot/restore: a restored session is indistinguishable from the
uninterrupted one — bit-identical graph, membership and future applies."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import caveman, karate_club, social_network
from repro.serve import (
    SNAPSHOT_SCHEMA,
    restore_session,
    snapshot_paths,
    snapshot_session,
)
from repro.stream import StreamConfig, StreamSession
from repro.trace import Tracer


def _assert_sessions_equal(a: StreamSession, b: StreamSession) -> None:
    np.testing.assert_array_equal(a.graph.indptr, b.graph.indptr)
    np.testing.assert_array_equal(a.graph.indices, b.graph.indices)
    np.testing.assert_array_equal(a.graph.weights, b.graph.weights)
    np.testing.assert_array_equal(a.membership, b.membership)
    np.testing.assert_array_equal(a.result.membership, b.result.membership)
    assert a.modularity == b.modularity
    assert a.batches == b.batches
    assert a.config == b.config


def test_round_trip_preserves_state(tmp_path):
    graph, _ = caveman(5, 8)
    session = StreamSession(
        graph,
        StreamConfig(screening="exact", full_rerun_interval=3),
        tracer=Tracer(),
    )
    session.apply(add=(np.array([0, 8]), np.array([16, 24]), None))

    sidecar = snapshot_session(session, tmp_path / "alpha")
    assert sidecar == tmp_path / "alpha.json"
    assert (tmp_path / "alpha.npz").exists()
    restored = restore_session(tmp_path / "alpha", tracer=Tracer())
    _assert_sessions_equal(session, restored)
    assert len(restored.reports) == len(session.reports) == 1
    assert restored.initial_report is not None
    assert (
        restored.initial_report.meta["fingerprint"]
        == session.config.fingerprint()
    )


def test_sidecar_contents(tmp_path):
    session = StreamSession(karate_club(), StreamConfig())
    snapshot_session(session, tmp_path / "k")
    sidecar = json.loads((tmp_path / "k.json").read_text())
    assert sidecar["schema"] == SNAPSHOT_SCHEMA
    assert sidecar["batches"] == 0
    assert sidecar["num_vertices"] == 34
    assert sidecar["fingerprint"] == session.config.fingerprint()
    assert StreamConfig.from_dict(sidecar["config"]) == session.config
    assert sidecar["result"]["modularity"] == session.modularity


def test_dotted_names_keep_their_stem(tmp_path):
    npz, sidecar = snapshot_paths(tmp_path / "my.session.v2")
    assert npz.name == "my.session.v2.npz"
    assert sidecar.name == "my.session.v2.json"


def test_missing_sidecar_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        restore_session(tmp_path / "ghost")


def test_schema_mismatch_raises(tmp_path):
    session = StreamSession(karate_club(), StreamConfig())
    snapshot_session(session, tmp_path / "k")
    sidecar = tmp_path / "k.json"
    payload = json.loads(sidecar.read_text())
    payload["schema"] = "repro.serve-snapshot/999"
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema"):
        restore_session(tmp_path / "k")


@pytest.mark.parametrize("value", [True, False])
def test_sidecar_with_retired_use_sweep_plan_restores(tmp_path, value):
    """Sidecars written while ``use_sweep_plan`` existed carry the key."""
    graph, _ = caveman(5, 8)
    original = StreamSession(graph, StreamConfig(screening="exact"))
    original.apply(add=(np.array([0, 8]), np.array([16, 24]), None))
    snapshot_session(original, tmp_path / "old")
    sidecar = tmp_path / "old.json"
    payload = json.loads(sidecar.read_text())
    payload["config"]["use_sweep_plan"] = value
    sidecar.write_text(json.dumps(payload))

    restored = restore_session(tmp_path / "old")
    _assert_sessions_equal(original, restored)
    batch = (np.array([1, 9, 30]), np.array([17, 33, 2]), None)
    result_a = original.apply(add=batch)
    result_b = restored.apply(add=batch)
    np.testing.assert_array_equal(result_a.membership, result_b.membership)
    assert result_a.modularity == result_b.modularity
    _assert_sessions_equal(original, restored)


def _sweep_records(result):
    return [stats for level in result.sweep_stats for stats in level]


def test_sidecar_with_retired_shard_mode_restores(tmp_path):
    """Sidecars written for the retired sharded engine restore as louvain.

    Its results were bit-identical to single-process Louvain, so a
    session stored with ``algo: "sharded"`` (with or without the
    ``shard.mode`` key of the color-mode era) continues exactly as the
    uninterrupted louvain session does.  The retired color protocol
    found different partitions and still refuses to restore.
    """
    graph = social_network(300, 6, rng=4)
    batch = (np.array([1, 9, 30]), np.array([170, 33, 299]), None)
    shard = {"pool": "inline", "workers": 2}
    sidecar = tmp_path / "old.json"
    for stored in (shard, {**shard, "mode": "sync"}):
        original = StreamSession(graph, StreamConfig())
        original.apply(add=(np.array([0, 8]), np.array([160, 240]), None))
        snapshot_session(original, tmp_path / "old")
        payload = json.loads(sidecar.read_text())
        payload["config"].update(algo="sharded", shard=stored)
        sidecar.write_text(json.dumps(payload))

        restored = restore_session(tmp_path / "old")
        assert restored.config.algo == "louvain"
        _assert_sessions_equal(original, restored)
        expected = original.apply(add=batch)
        result = restored.apply(add=batch)
        np.testing.assert_array_equal(result.membership, expected.membership)
        assert result.modularity == expected.modularity
        assert _sweep_records(expected)
        assert _sweep_records(result) == _sweep_records(expected)
        _assert_sessions_equal(original, restored)

    payload["config"]["shard"] = {**shard, "mode": "color"}
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="'color' was retired"):
        restore_session(tmp_path / "old")


# --------------------------------------------------------------------- #
# Property: snapshot -> restore -> apply is bit-identical to the
# uninterrupted session, including after deletions.
# --------------------------------------------------------------------- #
@st.composite
def interrupted_runs(draw):
    """(screening, first batch, second batch) against caveman(4, 6)."""
    graph, _ = caveman(4, 6)
    n = graph.num_vertices

    def batch():
        na = draw(st.integers(min_value=1, max_value=4))
        au = draw(st.lists(st.integers(0, n - 1), min_size=na, max_size=na))
        av = draw(st.lists(st.integers(0, n - 1), min_size=na, max_size=na))
        aw = [float(w) for w in
              draw(st.lists(st.integers(1, 3), min_size=na, max_size=na))]
        return np.array(au), np.array(av), np.array(aw)

    screening = draw(st.sampled_from(["local", "exact"]))
    return graph, screening, batch(), batch(), draw(st.booleans())


@settings(max_examples=25, deadline=None)
@given(data=interrupted_runs())
def test_restored_apply_bit_identical(tmp_path_factory, data):
    graph, screening, first, second, delete_some = data
    config = StreamConfig(screening=screening, full_rerun_interval=2)

    original = StreamSession(graph, config)
    original.apply(add=first)
    # Delete real edges so restore-after-removal is exercised too.
    remove = None
    if delete_some:
        eu, ev, _ = original.graph.edge_list(unique=True)
        remove = (eu[:2], ev[:2])

    base = tmp_path_factory.mktemp("snap") / "s"
    snapshot_session(original, base)
    restored = restore_session(base)
    _assert_sessions_equal(original, restored)

    result_a = original.apply(add=second, remove=remove)
    result_b = restored.apply(add=second, remove=remove)
    np.testing.assert_array_equal(result_a.membership, result_b.membership)
    np.testing.assert_array_equal(original.membership, restored.membership)
    assert result_a.modularity == result_b.modularity
    assert result_a.mode == result_b.mode
    assert result_a.frontier_size == result_b.frontier_size
    _assert_sessions_equal(original, restored)
