"""Failure-injection tests for the graph readers."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph.generators import lfr_like
from repro.graph.io import (
    load_graph,
    read_edge_list,
    read_metis,
    write_edge_list,
    write_metis,
)

#: First line of the files below: no reader's error may repeat it.
MARKER = "secret-token-123"

#: Files whose first line is :data:`MARKER`, by name (the suffix picks
#: the reader), and the reason each reader gives.
MARKED_FILES = {
    "edges.txt": (f"{MARKER}\n0 1\n", r"edges\.txt, line 1: expected 'u v \[w\]'$"),
    "weights.txt": (f"0 1 {MARKER}\n", r"weights\.txt, line 1: edge weight must be a number$"),
    "ids.txt": (f"{MARKER} 1\n", r"ids\.txt, line 1: vertex ids must be integers$"),
    "head.graph": (f"{MARKER} 1\n2\n1\n", r"head\.graph, line 1: malformed METIS header$"),
    "row.graph": (f"2 1\n{MARKER}\n1\n", r"row\.graph, line 2: neighbor ids must be integers$"),
    "fmt.graph": (f"2 1 {MARKER}\n2\n1\n", r"fmt\.graph, line 1: unsupported METIS fmt code"),
    "matrix.mtx": (f"{MARKER}\n1 1\n", r"matrix\.mtx: not a valid Matrix Market file$"),
}

from ..conftest import csr_graphs


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nnot numbers\n")
    with pytest.raises(ValueError, match=r"bad\.txt, line 2"):
        read_edge_list(path)


def test_edge_list_missing_endpoint(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0\n")
    with pytest.raises(ValueError, match=r"bad\.txt, line 1.*'u v \[w\]'"):
        read_edge_list(path)


def test_edge_list_error_counts_comment_lines(tmp_path):
    # Line numbers are 1-based over the raw file, comments included.
    path = tmp_path / "bad.txt"
    path.write_text("# header\n0 1\n\n1 two\n")
    with pytest.raises(ValueError, match=r"bad\.txt, line 4: vertex ids must be integers$"):
        read_edge_list(path)


def test_edge_list_bad_weight(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 heavy\n")
    with pytest.raises(ValueError, match=r"bad\.txt, line 1"):
        read_edge_list(path)


def test_edge_list_negative_vertex(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("-1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_edge_list_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    graph = read_edge_list(path)
    assert graph.num_vertices == 0


def test_edge_list_comments_only(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# a\n% b\n")
    assert read_edge_list(path).num_edges == 0


def test_metis_truncated(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("3 3\n2 3\n")  # header claims 3 vertices, 1 line given
    g = read_metis(path)  # tolerated: missing rows read as isolated...
    # ...but symmetry is then broken and from_edges dedups; the reader
    # must still return a valid graph object.
    assert g.num_vertices == 3


def test_metis_bad_header(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("abc def\n")
    with pytest.raises(ValueError):
        read_metis(path)


def test_metis_neighbor_out_of_range(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\n5\n\n")  # neighbour 5 of a 2-vertex graph
    with pytest.raises(ValueError):
        read_metis(path)


def test_metis_rejects_unknown_fmt(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1 7\n2\n1\n")
    with pytest.raises(ValueError, match="fmt"):
        read_metis(path)


def test_metis_dangling_weight_field(tmp_path):
    # fmt=1 promises (neighbor, weight) pairs; an odd field count means
    # a weight (or neighbor) went missing.
    path = tmp_path / "bad.graph"
    path.write_text("2 1 1\n2 1.0\n1\n")
    with pytest.raises(ValueError, match="dangling"):
        read_metis(path)


def test_load_graph_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_graph(tmp_path / "nope.txt")


def test_unicode_and_blank_robustness(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("\n\n0 1 2.5\n\n   \n1 2\n")
    g = read_edge_list(path)
    assert g.num_edges == 2


@settings(max_examples=25, deadline=None)
@given(csr_graphs(max_vertices=15, max_edges=40, weighted=True))
def test_edge_list_roundtrip_property(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("io") / "g.txt"
    write_edge_list(g, path)
    loaded = read_edge_list(path)
    # the "# vertices N" header preserves isolated trailing vertices
    assert loaded.num_vertices == g.num_vertices
    u1, v1, w1 = g.edge_list(unique=True)
    u2, v2, w2 = loaded.edge_list(unique=True)
    assert np.array_equal(u1, u2)
    assert np.array_equal(v1, v2)
    assert np.allclose(w1, w2)


@settings(max_examples=25, deadline=None)
@given(csr_graphs(max_vertices=15, max_edges=40, weighted=True))
def test_metis_roundtrip_property(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("io") / "g.graph"
    write_metis(g, path)
    loaded = read_metis(path)
    assert loaded.num_vertices == g.num_vertices
    u1, v1, w1 = g.edge_list(unique=True)
    u2, v2, w2 = loaded.edge_list(unique=True)
    assert np.array_equal(u1, u2)
    assert np.allclose(w1, w2)


def test_large_roundtrip(tmp_path):
    g, _ = lfr_like(800, rng=0)
    path = tmp_path / "big.txt"
    write_edge_list(g, path)
    assert load_graph(path) == g


@pytest.mark.parametrize("name", sorted(MARKED_FILES))
def test_parse_errors_name_the_line_and_never_quote_it(tmp_path, name):
    text, reason = MARKED_FILES[name]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=reason) as excinfo:
        load_graph(path)
    assert MARKER not in str(excinfo.value)


def test_edge_list_rejects_non_finite_weights_by_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 1.5\n1 2 nan\n")
    with pytest.raises(ValueError, match=r"bad\.txt, line 2: edge weight must be finite$"):
        read_edge_list(path)


def test_binary_file_is_named_not_quoted(tmp_path):
    path = tmp_path / "blob.txt"
    path.write_bytes(b"0 1\n\xff\xfe\x00" + MARKER.encode())
    with pytest.raises(ValueError, match=r"blob\.txt, line 2: not text") as excinfo:
        read_edge_list(path)
    assert MARKER not in str(excinfo.value)
