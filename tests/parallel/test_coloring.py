"""Tests for greedy coloring."""

import numpy as np
from hypothesis import given, settings

from repro.graph.generators import caveman, complete, karate_club, ring, star
from repro.parallel.coloring import color_classes, greedy_coloring

from ..conftest import csr_graphs


def _is_proper(graph, colors):
    for v in range(graph.num_vertices):
        for nb in graph.neighbors(v):
            if nb != v and colors[nb] == colors[v]:
                return False
    return True


def test_ring_two_or_three_colors():
    g = ring(10)
    colors = greedy_coloring(g)
    assert _is_proper(g, colors)
    assert colors.max() <= 2


def test_complete_needs_n_colors():
    g = complete(5)
    colors = greedy_coloring(g)
    assert _is_proper(g, colors)
    assert np.unique(colors).size == 5


def test_star_two_colors():
    g = star(10)
    colors = greedy_coloring(g)
    assert _is_proper(g, colors)
    assert colors.max() == 1


def test_karate_proper():
    g = karate_club()
    colors = greedy_coloring(g)
    assert _is_proper(g, colors)
    assert colors.max() + 1 <= g.degrees.max() + 1


def test_color_classes_partition():
    g = karate_club()
    classes = color_classes(greedy_coloring(g))
    all_vertices = np.concatenate(classes)
    assert sorted(all_vertices.tolist()) == list(range(34))


def test_color_classes_are_independent_sets():
    g = karate_club()
    colors = greedy_coloring(g)
    for cls in color_classes(colors):
        members = set(cls.tolist())
        for v in cls:
            for nb in g.neighbors(v):
                assert nb == v or int(nb) not in members


def test_color_classes_empty():
    assert color_classes(np.array([], dtype=np.int64)) == []


@settings(max_examples=40, deadline=None)
@given(csr_graphs(max_vertices=20, max_edges=50))
def test_coloring_always_proper(g):
    colors = greedy_coloring(g)
    assert _is_proper(g, colors)
    if g.num_vertices:
        assert colors.min() >= 0


@settings(max_examples=60, deadline=None)
@given(csr_graphs(max_vertices=24, max_edges=80, allow_self_loops=True))
def test_coloring_is_valid_distance1_and_bounded(g):
    """The vectorized coloring stays a valid distance-1 coloring.

    Pinned for the lu comparator's independent sets: colors of
    adjacent vertices differ, every vertex is colored, and at most
    ``max_degree + 1`` colors are used (the mex bound the old first-fit
    implementation also guaranteed).
    """
    colors = greedy_coloring(g)
    assert _is_proper(g, colors)
    if g.num_vertices:
        assert colors.min() >= 0
        assert colors.max() + 1 <= int(g.degrees.max(initial=0)) + 1
        # color classes partition the vertex set into independent sets
        classes = color_classes(colors)
        assert sorted(np.concatenate(classes).tolist()) == list(range(g.num_vertices))


def test_coloring_deterministic():
    g = karate_club()
    a = greedy_coloring(g)
    b = greedy_coloring(g)
    assert np.array_equal(a, b)


def test_class_structure_pinned_on_seed_graphs():
    """Snapshot of the class structure on seed graphs.

    The speculative coloring is deterministic (hash priorities, no RNG
    state), so the classes must not drift across refactors — the lu
    comparator consumes them.
    """
    karate_classes = [c.tolist() for c in color_classes(greedy_coloring(karate_club()))]
    assert karate_classes == [
        [3, 9, 10, 11, 14, 15, 16, 17, 18, 19, 20, 21, 22, 24, 28, 29, 30],
        [0, 25, 26, 27, 32],
        [4, 5, 7, 8, 12, 13, 23, 31],
        [1, 6, 33],
        [2],
    ]
    ring_classes = [c.tolist() for c in color_classes(greedy_coloring(ring(10)))]
    assert ring_classes == [[1, 3, 5, 7, 9], [0, 2, 4, 6, 8]]
    cave, _ = caveman(4, 5)
    cave_classes = [c.tolist() for c in color_classes(greedy_coloring(cave))]
    assert cave_classes == [
        [3, 9, 11, 19],
        [0, 7, 14, 17],
        [1, 5, 13, 15],
        [4, 8, 12, 16],
        [2, 6, 10, 18],
    ]
