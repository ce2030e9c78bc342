"""Tests for repro.metrics.teps."""

import pytest

from repro.graph.generators import ring
from repro.metrics.teps import TepsResult, teps


def test_teps_counts_stored_edges_per_sweep():
    g = ring(10)  # 10 undirected edges -> 20 stored
    result = teps(g, first_phase_sweeps=3, first_phase_seconds=2.0)
    assert result.edges_traversed == 60
    assert result.teps == pytest.approx(30.0)


def test_teps_units():
    r = TepsResult(edges_traversed=2_000_000_000, seconds=1.0)
    assert r.gteps == pytest.approx(2.0)
    assert r.mteps == pytest.approx(2000.0)


def test_teps_zero_seconds():
    r = TepsResult(edges_traversed=10, seconds=0.0)
    assert r.teps == 0.0


def test_teps_negative_sweeps_clamped():
    g = ring(5)
    assert teps(g, -1, 1.0).edges_traversed == 0
