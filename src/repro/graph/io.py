"""Graph file input/output.

Three formats cover what the paper's tool-chain consumed:

* **edge list** — whitespace-separated ``u v [w]`` lines (SNAP / Koblenz
  distribution format);
* **METIS** — the format of the graph-partitioning archive graphs
  (channel-500..., packing-500...);
* **Matrix Market** — the Florida sparse matrix collection format
  (audikw_1, nlpkkt*, ...), via :mod:`scipy.io`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .build import from_edges, from_scipy
from .csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "read_matrix_market",
    "write_matrix_market",
    "load_graph",
]


def read_edge_list(path: str | Path, *, comments: str = "#%") -> CSRGraph:
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


def _weight(field: str, path: str | Path, lineno: int) -> float:
    """One METIS edge weight field, which must be a finite number."""
    try:
        weight = float(field)
    except ValueError:
        raise _line_error(path, lineno, "edge weight must be a number") from None
    if not math.isfinite(weight):
        raise _line_error(path, lineno, "edge weight must be finite")
    return weight


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
        return from_edges(
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


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write one ``u v w`` line per undirected edge (u <= v)."""
    u, v, w = graph.edge_list(unique=True)
    with open(path, "w") as handle:
        handle.write(f"# vertices {graph.num_vertices} edges {u.size}\n")
        for a, b, c in zip(u, v, w):
            handle.write(f"{a} {b} {c:g}\n")


def read_metis(path: str | Path) -> CSRGraph:
    """Read a METIS ``.graph`` file (1-based adjacency lists).

    The full three-digit ``fmt`` header code is honoured: ``fmt=ijk``
    where ``i`` marks vertex sizes, ``j`` vertex weights (``ncon`` of
    them per vertex, fourth header field) and ``k`` edge weights.  Codes
    are left-padded, so ``1`` means edge weights while ``10``/``11``
    mean vertex weights without/with edge weights.  Vertex sizes and
    weights are parsed past (the CSR graph keeps edge weights only) —
    the point is that they are no longer misread as neighbor ids.  A bad
    line raises :class:`ValueError` naming ``file, line N`` and the
    reason.
    """
    with open(path) as handle:
        try:
            # Comments ('%') are skipped; blank lines are NOT — an empty
            # row is a legitimate isolated vertex.
            lines = [
                (lineno, raw.rstrip("\n"))
                for lineno, raw in enumerate(handle, start=1)
                if not raw.lstrip().startswith("%")
            ]
        except UnicodeDecodeError:
            raise _not_text(path) from None
    while lines and not lines[0][1].strip():
        lines.pop(0)
    if not lines:
        raise ValueError(f"{path}: no METIS header line")
    header_line, header_text = lines[0]
    header = header_text.split()
    try:
        n = int(header[0])
        ncon_field = int(header[3]) if len(header) > 3 else None
    except (IndexError, ValueError):
        raise _line_error(path, header_line, "malformed METIS header") from None
    fmt = header[2] if len(header) > 2 else "0"
    if len(fmt) > 3 or set(fmt) - {"0", "1"}:
        raise _line_error(
            path, header_line, "unsupported METIS fmt code (up to three 0/1 digits)"
        )
    fmt = fmt.zfill(3)
    has_sizes = fmt[0] == "1"
    has_vertex_weights = fmt[1] == "1"
    has_edge_weights = fmt[2] == "1"
    ncon = ncon_field if ncon_field is not None else (1 if has_vertex_weights else 0)
    skip = int(has_sizes) + (ncon if has_vertex_weights else 0)
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for i, (lineno, line) in enumerate(lines[1 : n + 1]):
        fields = line.split()[skip:]
        step = 2 if has_edge_weights else 1
        if len(fields) % step:
            raise _line_error(
                path,
                lineno,
                f"vertex {i + 1} has a dangling neighbor/weight field (fmt={fmt})",
            )
        for j in range(0, len(fields), step):
            try:
                nb = int(fields[j]) - 1
            except ValueError:
                raise _line_error(path, lineno, "neighbor ids must be integers") from None
            if not 0 <= nb < n:
                raise _line_error(path, lineno, f"neighbor id out of range 1..{n}")
            w = _weight(fields[j + 1], path, lineno) if has_edge_weights else 1.0
            if nb >= i:  # each undirected edge listed from both sides
                us.append(i)
                vs.append(nb)
                ws.append(w)
    return _graph_of(path, us, vs, ws, n)


def write_metis(graph: CSRGraph, path: str | Path) -> None:
    """Write METIS format with edge weights (fmt=001)."""
    with open(path, "w") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges} 001\n")
        for v in range(graph.num_vertices):
            row = graph.neighbors(v)
            wts = graph.neighbor_weights(v)
            parts = [f"{nb + 1} {w:g}" for nb, w in zip(row, wts)]
            handle.write(" ".join(parts) + "\n")


def read_matrix_market(path: str | Path) -> CSRGraph:
    """Read a Matrix Market file as an undirected graph.

    A file the Matrix Market parser rejects raises :class:`ValueError`
    naming the file only: the parser's own message may quote content.
    """
    from scipy.io import mmread

    try:
        matrix = mmread(str(path))
    except OSError:
        raise
    except Exception:  # noqa: BLE001 - the parser raises several kinds
        raise ValueError(f"{path}: not a valid Matrix Market file") from None
    try:
        return from_scipy(matrix)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_matrix_market(graph: CSRGraph, path: str | Path) -> None:
    """Write the adjacency matrix in Matrix Market coordinate format."""
    from scipy.io import mmwrite

    mmwrite(str(path), graph.to_scipy())


def load_graph(path: str | Path) -> CSRGraph:
    """Dispatch on file extension: ``.mtx``, ``.graph``/``.metis``, else edge list."""
    suffix = Path(path).suffix.lower()
    if suffix == ".mtx":
        return read_matrix_market(path)
    if suffix in (".graph", ".metis"):
        return read_metis(path)
    return read_edge_list(path)
