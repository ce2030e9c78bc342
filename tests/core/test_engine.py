"""The Engine protocol (repro.core.engine): registry, dispatch, leiden."""

import numpy as np
import pytest

from repro.core import GPULouvainConfig
from repro.core.engine import (
    ALGO_NAMES,
    Engine,
    LabelPropagationEngine,
    LeidenEngine,
    LouvainEngine,
    SolverEngine,
    get_engine,
)
from repro.core.gpu_louvain import gpu_louvain
from repro.core.refine import count_disconnected
from repro.graph.build import from_edges
from repro.graph.generators import caveman, karate_club, social_network
from repro.metrics.modularity import modularity


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
def test_registry_resolves_every_algo():
    assert ALGO_NAMES == ("louvain", "leiden", "lpa")
    assert isinstance(get_engine("louvain"), LouvainEngine)
    assert isinstance(get_engine("leiden"), LeidenEngine)
    assert isinstance(get_engine("lpa"), LabelPropagationEngine)
    for name in ("seq", "plm", "lu", "coarse", "sort", "multigpu"):
        engine = get_engine(name)
        assert isinstance(engine, SolverEngine)
        assert engine.name == name
        assert not engine.supports_warm_start
        assert not engine.supports_stream


def test_registry_rejects_unknown_names_and_bad_options():
    with pytest.raises(ValueError, match="unknown engine: 'walktrap'"):
        get_engine("walktrap")
    with pytest.raises(ValueError, match="unknown engine: 'sharded'"):
        get_engine("sharded")  # retired; stored configs map it in from_dict
    with pytest.raises(TypeError):
        get_engine("louvain", devices=2)


def test_algo_engines_advertise_streaming():
    for name in ALGO_NAMES:
        engine = get_engine(name)
        assert isinstance(engine, Engine)
        assert engine.supports_stream
        assert engine.supports_warm_start


# --------------------------------------------------------------------- #
# detect() dispatch
# --------------------------------------------------------------------- #
def test_louvain_engine_is_bit_identical_to_gpu_louvain(karate):
    direct = gpu_louvain(karate)
    via_engine = get_engine("louvain").detect(karate)
    np.testing.assert_array_equal(via_engine.membership, direct.membership)
    assert via_engine.modularity == direct.modularity
    assert via_engine.num_levels == direct.num_levels


@pytest.mark.parametrize("algo", list(ALGO_NAMES))
def test_algo_detect_deterministic(algo):
    graph = social_network(300, 6, rng=2)
    engine = get_engine(algo)
    first = engine.detect(graph)
    second = engine.detect(graph)
    np.testing.assert_array_equal(first.membership, second.membership)
    assert first.modularity == second.modularity


@pytest.mark.parametrize("solver", ["seq", "plm", "lu", "coarse", "sort"])
def test_solver_engines_detect(karate, solver):
    result = get_engine(solver).detect(karate, GPULouvainConfig())
    assert 0.3 < result.modularity < 0.45
    assert result.membership.shape == (34,)


def test_multigpu_engine_takes_devices(karate):
    result = get_engine("multigpu", devices=2).detect(karate)
    assert result.membership.shape == (34,)
    assert result.modularity > 0.0


def test_solver_engine_rejects_warm_start(karate):
    with pytest.raises(ValueError, match="does not support warm starts"):
        get_engine("seq").detect(
            karate, initial_communities=np.zeros(34, dtype=np.int64)
        )


# --------------------------------------------------------------------- #
# Leiden: the well-connectedness guarantee
# --------------------------------------------------------------------- #
def test_leiden_matches_louvain_when_already_well_connected():
    graph, _ = caveman(6, 8)
    lou = get_engine("louvain").detect(graph)
    lei = get_engine("leiden").detect(graph)
    assert count_disconnected(graph, lou.membership) == 0
    np.testing.assert_array_equal(lei.membership, lou.membership)
    assert lei.modularity == lou.modularity


def _barbell_with_cut_bridge():
    """Two K5 cliques whose 3-edge bridge path is all one community.

    A warm start glues both cliques plus the path into one label; after
    the bridge's middle vertex is its own community the remaining label
    would be disconnected — the shape the streaming drift bug produces.
    """
    us, vs = [], []
    for base in (0, 7):
        for i in range(5):
            for j in range(i + 1, 5):
                us.append(base + i)
                vs.append(base + j)
    us.extend([4, 5, 6])
    vs.extend([5, 6, 7])
    return from_edges(us, vs, num_vertices=12)


def test_leiden_repairs_disconnected_warm_start():
    graph = _barbell_with_cut_bridge()
    # one community holding both cliques, the bridge vertices split off:
    # {cliques + path ends} is internally disconnected
    warm = np.zeros(12, dtype=np.int64)
    warm[5] = 5
    warm[6] = 5
    assert count_disconnected(graph, warm) == 1

    lou = get_engine("louvain").detect(graph, initial_communities=warm)
    lei = get_engine("leiden").detect(graph, initial_communities=warm)
    assert count_disconnected(graph, lei.membership) == 0
    assert lei.modularity >= lou.modularity - 1e-12
    assert lei.modularity == pytest.approx(
        modularity(graph, lei.membership)
    )


@pytest.mark.parametrize("algo", ["louvain", "leiden"])
def test_warm_start_round_trip(algo):
    graph = social_network(200, 5, rng=4)
    engine = get_engine(algo)
    base = engine.detect(graph)
    warm = engine.detect(graph, initial_communities=base.membership)
    assert warm.modularity >= base.modularity - 1e-12


def test_leiden_never_worse_on_suite_graphs():
    for graph in (
        karate_club(),
        social_network(400, 6, rng=3),
        caveman(5, 7)[0],
    ):
        lou = get_engine("louvain").detect(graph)
        lei = get_engine("leiden").detect(graph)
        assert lei.modularity >= lou.modularity - 1e-12
        assert count_disconnected(graph, lei.membership) == 0
