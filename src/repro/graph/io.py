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
    vertices survive a round trip.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    num_vertices: int | None = None
    with open(path) as handle:
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
                raise ValueError(
                    f"{path}, line {lineno}: expected 'u v [w]', got {line!r}"
                )
            try:
                u = int(parts[0])
                v = int(parts[1])
                w = float(parts[2]) if len(parts) > 2 else 1.0
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: malformed edge line {line!r}"
                ) from None
            us.append(u)
            vs.append(v)
            ws.append(w)
    return from_edges(
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(ws, dtype=np.float64),
        num_vertices=num_vertices,
    )


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
    the point is that they are no longer misread as neighbor ids.
    """
    with open(path) as handle:
        # Comments ('%') are skipped; blank lines are NOT — an empty row
        # is a legitimate isolated vertex.
        lines = [
            line for line in (raw.rstrip("\n") for raw in handle)
            if not line.lstrip().startswith("%")
        ]
    while lines and not lines[0].strip():
        lines.pop(0)
    header = lines[0].split()
    n = int(header[0])
    fmt = header[2] if len(header) > 2 else "0"
    if len(fmt) > 3 or set(fmt) - {"0", "1"}:
        raise ValueError(f"{path}: unsupported METIS fmt code {fmt!r}")
    fmt = fmt.zfill(3)
    has_sizes = fmt[0] == "1"
    has_vertex_weights = fmt[1] == "1"
    has_edge_weights = fmt[2] == "1"
    ncon = int(header[3]) if len(header) > 3 else (1 if has_vertex_weights else 0)
    skip = int(has_sizes) + (ncon if has_vertex_weights else 0)
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for i, line in enumerate(lines[1 : n + 1]):
        fields = line.split()[skip:]
        step = 2 if has_edge_weights else 1
        if len(fields) % step:
            raise ValueError(
                f"{path}: vertex {i + 1} has a dangling neighbor/weight "
                f"field (fmt={fmt})"
            )
        for j in range(0, len(fields), step):
            nb = int(fields[j]) - 1
            w = float(fields[j + 1]) if has_edge_weights else 1.0
            if nb >= i:  # each undirected edge listed from both sides
                us.append(i)
                vs.append(nb)
                ws.append(w)
    return from_edges(
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(ws, dtype=np.float64),
        num_vertices=n,
    )


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
    """Read a Matrix Market file as an undirected graph."""
    from scipy.io import mmread

    return from_scipy(mmread(str(path)))


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
