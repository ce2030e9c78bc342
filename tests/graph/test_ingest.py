"""The bulk edge-list reader and the one-sort ``from_edges``, against the
line-by-line reader and the two-sort build they replaced.

The references below are those implementations, copied verbatim.  On
every drawn file the bulk reader must return the same graph bit for bit
or raise the same ``file, line N: reason`` error; on every drawn edge
list ``from_edges`` must return the same arrays bit for bit.  Only
Python-only number spellings may load differently, and each of those is
pinned by its own test.  CI also runs the two fuzzers with a fresh
``--hypothesis-seed`` on every push.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import io
from repro.graph.build import _stable_argsort, _vertex_ids, empty_graph, from_edges
from repro.graph.csr import CSRGraph
from repro.graph.io import read_edge_list


# --------------------------------------------------------------------- #
# References: the line reader and the two-sort build, verbatim
# --------------------------------------------------------------------- #
def _reference_read(path: str | Path, *, comments: str = "#%") -> CSRGraph:
    """Read a whitespace-separated ``u v [w]`` edge-list file.

    A leading comment of the form ``# vertices N ...`` (as written by
    :func:`write_edge_list`) fixes the vertex count, so isolated trailing
    vertices survive a round trip.  A bad line raises
    :class:`ValueError` naming ``file, line N`` and the reason, never the
    line's content.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    num_vertices: int | None = None
    with open(path) as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line[0] in comments:
                    parts = line.split()
                    if (
                        num_vertices is None
                        and len(parts) >= 3
                        and parts[1] == "vertices"
                        and parts[2].isdigit()
                    ):
                        num_vertices = int(parts[2])
                    continue
                parts = line.split()
                if len(parts) < 2:
                    raise _line_error(path, lineno, "expected 'u v [w]'")
                try:
                    u = int(parts[0])
                    v = int(parts[1])
                    w = float(parts[2]) if len(parts) > 2 else 1.0
                except ValueError:
                    raise _line_error(path, lineno, _bad_field(parts)) from None
                us.append(u)
                vs.append(v)
                ws.append(w)
        except UnicodeDecodeError:
            raise _not_text(path) from None
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    w = np.array(ws, dtype=np.float64)
    # Checked in bulk; only a failing file is scanned again for the line.
    for bad, reason in (
        ((u < 0) | (v < 0), "vertex ids must be non-negative"),
        (~np.isfinite(w), "edge weight must be finite"),
    ):
        if bad.any():
            line = _data_line(path, comments, int(np.argmax(bad)))
            raise _line_error(path, line, reason)
    return _graph_of(path, u, v, w, num_vertices)


def _bad_field(parts: list[str]) -> str:
    """Which field of an edge line failed to parse."""
    try:
        int(parts[0])
        int(parts[1])
    except ValueError:
        return "vertex ids must be integers"
    return "edge weight must be a number"


def _data_line(path: str | Path, comments: str, index: int) -> int:
    """Line number of the ``index``-th (0-based) edge line of ``path``."""
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line and line[0] not in comments:
                if index == 0:
                    return lineno
                index -= 1
    raise AssertionError("unreachable: fewer edge lines than parsed edges")


def _line_error(path: str | Path, lineno: int, reason: str) -> ValueError:
    """A parse error naming ``file, line N`` and the reason only.

    The line itself is never quoted: the serve layer returns these
    messages to clients, and the file may not be a graph at all.
    """
    return ValueError(f"{path}, line {lineno}: {reason}")


def _graph_of(
    path: str | Path,
    u: np.ndarray | list[int],
    v: np.ndarray | list[int],
    w: np.ndarray | list[float],
    num_vertices: int | None,
) -> CSRGraph:
    """:func:`~repro.graph.build.from_edges` of parsed fields; its errors
    name the file."""
    try:
        return _reference_from_edges(
            np.asarray(u, dtype=np.int64),
            np.asarray(v, dtype=np.int64),
            np.asarray(w, dtype=np.float64),
            num_vertices=num_vertices,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _not_text(path: str | Path) -> ValueError:
    """The error for a file that does not decode: the first bad line is
    found again by decoding line by line (text reads decode in chunks)."""
    import locale  # the error path only: keeps it off ``import repro``

    encoding = locale.getpreferredencoding(False)
    lineno = 0
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode(encoding)
            except UnicodeDecodeError:
                break
    return _line_error(path, lineno, "not text in the expected encoding")


def _reference_from_edges(
    u: Iterable[int] | np.ndarray,
    v: Iterable[int] | np.ndarray,
    w: Iterable[float] | np.ndarray | None = None,
    *,
    num_vertices: int | None = None,
) -> CSRGraph:
    """Build a canonical undirected CSR graph from an edge list.

    Each pair ``(u[i], v[i])`` denotes one undirected edge; supplying the
    edge in either or both directions is equivalent — duplicates (including
    reverse duplicates) are merged and their weights summed.  Self-loops are
    allowed and end up stored once.

    Parameters
    ----------
    u, v:
        Endpoint arrays of equal length.
    w:
        Optional weights (default: all ones).
    num_vertices:
        Total vertex count; defaults to ``max(endpoint) + 1``.

    Endpoints are validated as a batch's are: a boolean, fractional or
    non-finite id raises :class:`ValueError` instead of truncating to a
    vertex, and so does a NaN or infinite weight (one would poison
    ``2m`` and every modularity computed from it).
    """
    u = _vertex_ids(u, "edge")
    v = _vertex_ids(v, "edge")
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")
    if w is None:
        w = np.ones(u.size, dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64).ravel()
        if w.shape != u.shape:
            raise ValueError("w must match u/v in length")
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
    if u.size and (min(u.min(), v.min()) < 0):
        raise ValueError("vertex ids must be non-negative")
    n = int(num_vertices) if num_vertices is not None else (
        int(max(u.max(), v.max())) + 1 if u.size else 0
    )
    if u.size and max(u.max(), v.max()) >= n:
        raise ValueError("num_vertices too small for supplied edge endpoints")

    if u.size == 0:
        return empty_graph(n)

    # Canonicalise each undirected edge as (min, max) and merge duplicates.
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    wsorted = w[order]
    boundary = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    merged_key = key[boundary]
    merged_w = np.add.reduceat(wsorted, boundary)
    mlo = merged_key // n
    mhi = merged_key % n

    # Expand to both stored directions (self-loops once).
    not_loop = mlo != mhi
    src = np.concatenate([mlo, mhi[not_loop]])
    dst = np.concatenate([mhi, mlo[not_loop]])
    ww = np.concatenate([merged_w, merged_w[not_loop]])

    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(src * np.int64(max(n, 1)) + dst, kind="stable")
    return CSRGraph(indptr=indptr, indices=dst[order], weights=ww[order])


# --------------------------------------------------------------------- #
# Drawn edge-list files
# --------------------------------------------------------------------- #
#: Tokens that are no number; the NUL and the non-ASCII letter are no
#: number in either reader.
NOT_NUMBERS = ["x", "1.5", "0x1", "1e3", "--1", "+", "-", "+-1", "1-", "é", "1\x00", "\x01", "nan"]
#: Python float spellings beyond repr/%g/%e, underscores included: the
#: bulk reader parses weights with NumPy's float parser, which takes them.
FLOAT_SPELLINGS = [
    "+1.5", "-0", "007.25", "1_0", "1_000.5", ".5", "5.", "1E5", "Infinity", "-NaN",
    "+inf", "iNf", "1e400", "4.9e-324", "9007199254740993", "0.1",
]
NOT_FLOATS = NOT_NUMBERS[:-1] + ["1.2.3", "1e", "e5", "1,5", "nan(1)", "0x10", "1__0", "_1"]
ONE_IN_TEN = st.sampled_from([True] + [False] * 9)
SPACES = st.sampled_from([" ", "  ", "\t", " \t", "\x0b", "\x0c", "\x1c", "\x1f"])


@st.composite
def id_tokens(draw) -> str:
    """A vertex id: small, with a sign and zero padding across the 8-digit
    words of the digit parse, or no number at all."""
    if draw(ONE_IN_TEN):
        return draw(st.sampled_from(NOT_NUMBERS))
    sign = draw(st.sampled_from(["", "", "", "", "", "+", "-"]))
    zeros = draw(st.sampled_from([0, 0, 0, 1, 7, 8, 15, 16, 17, 24, 30]))
    return sign + "0" * zeros + str(draw(st.integers(0, 40)))


@st.composite
def weight_tokens(draw) -> str:
    kind = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 4, 5]))
    if kind == 0:  # up to 21 digits: the exact and the parser path
        return str(draw(st.integers(0, 10**21)))
    if kind == 4:
        return draw(st.sampled_from(FLOAT_SPELLINGS))
    if kind == 5:
        return draw(st.sampled_from(NOT_FLOATS))
    x = draw(st.floats(allow_nan=True, allow_infinity=True))
    return (repr(x), f"{x:g}", f"{x:.4e}")[kind - 1]


@st.composite
def edge_lines(draw) -> str:
    """1 to 4 fields; a fourth field is ignored."""
    fields = [draw(id_tokens()), draw(id_tokens()), draw(weight_tokens()),
              draw(st.sampled_from(["x", "1", "é", "nan"]))]
    fields = fields[: draw(st.sampled_from([1, 2, 2, 3, 3, 3, 4]))]
    return "".join(draw(SPACES) + field for field in fields)[1:]


@st.composite
def comment_lines(draw) -> str:
    """A comment, sometimes a ``# vertices N`` header (well formed or not)."""
    mark = draw(st.sampled_from(["#", "%"]))
    if draw(st.booleans()):
        count = draw(st.sampled_from([str(n) for n in range(45)] + ["007", "+5", "x", "4.0", "é"]))
        sep = draw(st.sampled_from([" ", "\t", ""]))
        return f"{mark}{sep}vertices {count}" + draw(st.sampled_from(["", " edges 3"]))
    words = draw(st.lists(st.sampled_from(["a", "vertices", "é", "中文", "€", "1 2", "#", "ß"]),
                          max_size=4))
    return mark + " ".join(words)


@st.composite
def edge_files(draw) -> bytes:
    """Files of mixed lines: blank, whitespace-only, comments anywhere
    (after leading blanks too, some near 8 KiB long), headers and edges;
    ``\\n``, ``\\r\\n`` and ``\\r`` ends; sometimes no final newline or an
    undecodable byte."""
    line = st.one_of(st.just(""), SPACES, comment_lines(), edge_lines(), edge_lines())
    lines = draw(st.lists(line, max_size=12))
    if draw(ONE_IN_TEN):
        # Moves later lines past the first 8 KiB chunk of a text-mode
        # read, which decodes as lines are asked for.
        comment = "#" + "x" * draw(st.integers(8150, 8250))
        lines.insert(draw(st.integers(0, len(lines))), comment)
    text = ""
    for body in lines:
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        text += lead + body + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(ONE_IN_TEN):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


def _outcome(read, path: Path):
    """A graph's bytes (bit-identity), or the error message."""
    try:
        graph = read(path)
    except ValueError as exc:
        return str(exc)
    return (graph.num_vertices, graph.indptr.tobytes(), graph.indices.tobytes(),
            graph.weights.tobytes())


@settings(max_examples=300, deadline=None)
@given(data=edge_files())
@example(data=b"# vertices 4\r\n0 1 2.5\r\n\r\n% c\r3 2")
@example(data=b"0 1\n\n1 x\n2")
@example(data=b"# vertices +5\n0 1\n")  # a signed count is no header
@example(data=b"0 1 2\x00\n")  # NumPy's cast would drop the NUL
def test_bulk_reader_matches_the_line_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("ingest") / "g.txt"
    path.write_bytes(data)
    assert _outcome(read_edge_list, path) == _outcome(_reference_read, path)


@pytest.mark.parametrize("end", [b"\n", b"\r\n"])
def test_an_undecodable_file_fails_where_a_text_read_would(tmp_path, end):
    # Line 2 is bad and ends at byte 8191, the last of the first 8 KiB
    # chunk; a bad byte follows in the second chunk.  A text-mode read
    # yields line 2 before it decodes that chunk, unless the chunk ends
    # with the "\r" of a "\r\n", which waits for the next chunk.
    data = b"#" + b"x" * 8186 + b"\n" + b"1 x" + end + b"\xff\n"
    assert data[8188:8191] == b"1 x" and data[8191] == end[0]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    assert _outcome(read_edge_list, path) == _outcome(_reference_read, path)


# --------------------------------------------------------------------- #
# Spellings only Python's int() took: now each is a line error
# --------------------------------------------------------------------- #
def _error(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_edge_list(path)
    return str(excinfo.value)


def test_digit_group_underscores_in_an_id_are_a_line_error(tmp_path):
    path = tmp_path / "g.txt"
    assert _error(path, "0 1\n1_0 2\n") == f"{path}, line 2: vertex ids must be integers"
    assert _reference_read(path).num_vertices == 11  # the line reader read vertex 10


def test_non_ascii_digits_are_a_line_error(tmp_path):
    path = tmp_path / "g.txt"
    # ARABIC-INDIC DIGIT ONE as an id, FULLWIDTH DIGIT ONE in a weight.
    assert _error(path, "0 \u0661\n") == f"{path}, line 1: vertex ids must be integers"
    assert _reference_read(path).num_edges == 1
    assert _error(path, "0 1 \uff11.5\n") == f"{path}, line 1: edge weight must be a number"
    assert _reference_read(path).total_weight == 3.0


def test_non_ascii_whitespace_is_a_line_error(tmp_path):
    path = tmp_path / "g.txt"
    # NO-BREAK SPACE between the ids; a line holding only an EM SPACE.
    assert _error(path, "0\u00a01\n") == f"{path}, line 1: expected 'u v [w]'"
    assert _reference_read(path).num_edges == 1
    assert _error(path, "0 1\n\u2003\n") == f"{path}, line 2: expected 'u v [w]'"
    assert _reference_read(path).num_edges == 1  # a blank line to str.strip()


def test_an_id_beyond_int64_is_a_line_error(tmp_path):
    path = tmp_path / "g.txt"
    message = f"{path}, line 2: vertex ids must fit in 64 bits"
    assert _error(path, "0 1\n99999999999999999999999 2\n") == message
    with pytest.raises(OverflowError):
        _reference_read(path)
    assert _error(path, "0 1\n1 9223372036854775808\n") == message
    assert _error(path, "0 1\n-9223372036854775809 1\n") == message
    # The extremes of int64 are ids; a negative one is refused as such.
    assert _error(path, "0 1\n-9223372036854775808 1\n") == (
        f"{path}, line 2: vertex ids must be non-negative"
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-(2**64), 2**64) | st.integers(-(10**30), 10**30),
                          st.sampled_from(["", "+"]), st.integers(0, 40),
                          st.sampled_from(["", "", "", "x", "/", ":"])),
                min_size=1, max_size=20))
def test_ids_read_every_integer_spelling_exactly(ids):
    """Ids of every width through the 8-digit words and the zero check
    left of them, against ``int()`` (a junk byte among the leading zeros
    makes no number); the files above only hold small ids, as their
    graphs must be built."""
    tokens = []
    for x, plus, zeros, junk in ids:
        digits = "0" * zeros + str(abs(x))
        tokens.append(("-" if x < 0 else plus) + junk + digits)
    text = (" " * 8 + " ".join(tokens) + " ").encode()
    end = 8 + np.cumsum([len(t) + 1 for t in tokens]) - 1
    start = end - [len(t) for t in tokens]
    buf = np.frombuffer(text, dtype=np.uint8)
    value, digits, big = io._ids(buf, start, end)
    for (x, _, _, junk), number, got, too_big in zip(ids, digits.tolist(), value.tolist(),
                                                      big.tolist()):
        assert number == (junk == "")
        if number:
            assert too_big == (not -(2**63) <= x < 2**63)
            assert too_big or got == x


def test_a_vertex_count_beyond_int64_is_a_line_error(tmp_path):
    path = tmp_path / "g.txt"
    assert _error(path, "0 1\n# vertices 99999999999999999999\n") == (
        f"{path}, line 2: vertex count must fit in 64 bits"
    )


# --------------------------------------------------------------------- #
# from_edges: one sort, the same arrays
# --------------------------------------------------------------------- #
@st.composite
def edge_lists(draw):
    """Edges with duplicates, reverse duplicates and self-loops, some in
    groups longer than 8 with non-integral weights: ``np.add.reduceat``
    sums those pairwise, so a merge in any other order shows."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=40))
    for a, b in draw(st.lists(pair, max_size=3)):
        edges += [(a, b) if draw(st.booleans()) else (b, a)
                  for _ in range(draw(st.integers(9, 20)))]
    edges = draw(st.permutations(edges))
    weight = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.1, 1 / 3, 1.0, 2.0, 1e-9]))
    w = draw(st.one_of(st.none(), st.lists(weight, min_size=len(edges), max_size=len(edges))))
    num_vertices = draw(st.one_of(st.none(), st.integers(n, n + 3)))
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return u, v, w, num_vertices


@settings(max_examples=300, deadline=None)
@given(edges=edge_lists())
@example(edges=(np.zeros(0, np.int64), np.zeros(0, np.int64), None, None))
@example(edges=(np.zeros(0, np.int64), np.zeros(0, np.int64), None, 5))
def test_from_edges_matches_the_two_sort_build(edges):
    u, v, w, num_vertices = edges
    got = from_edges(u, v, w, num_vertices=num_vertices)
    want = _reference_from_edges(u, v, w, num_vertices=num_vertices)
    for name in ("indptr", "indices", "weights"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_from_edges_falls_back_to_the_stable_sort_when_the_key_is_wide():
    # Keys just below and just above 2**62 on 3 * 10**9 vertices: with
    # two edges, ``key * size`` of the second would wrap negative and
    # sort first, so the stable sort must run.
    n = 3 * 10**9
    key = np.array([2**62 + 5, 2**62 - 5], dtype=np.int64)
    u, v = np.divmod(key, n)
    assert (u <= v).all() and (v < n).all()
    assert np.array_equal(np.minimum(u, v) * n + np.maximum(u, v), key)
    np.testing.assert_array_equal(_stable_argsort(key), [1, 0])
