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


#: ``str.split()``'s whitespace among the ASCII bytes, as a
#: :meth:`bytes.translate` table to booleans.
_SPACE = bytes(b in b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f " for b in range(256))

#: ``b"vertices"`` as one word of :func:`_words`.
_VERTICES = np.frombuffer(b"vertices", dtype="<u8")[0]

#: For a word whose top ``n`` bytes are a run's digits, indexed by ``n``
#: (0-8): the mask that keeps them and the ``"0"`` bytes that pad them.
_KEEP = np.array([~((1 << 8 * (8 - n)) - 1) % 2**64 for n in range(9)], dtype=np.uint64)
_FILL = ~_KEEP & np.uint64(0x3030303030303030)

#: Mask, factor and shift of the three SWAR steps that turn 8 digit
#: bytes into their value (simdjson's ``parse_eight_digits_unrolled``).
_SWAR = tuple(
    tuple(np.uint64(x) for x in step)
    for step in (
        (0x0F0F0F0F0F0F0F0F, 10 * 2**8 + 1, 8),
        (0x00FF00FF00FF00FF, 100 * 2**16 + 1, 16),
        (0x0000FFFF0000FFFF, 10000 * 2**32 + 1, 32),
    )
)


def read_edge_list(path: str | Path, *, comments: str = "#%") -> CSRGraph:
    """Read a whitespace-separated ``u v [w]`` edge-list file.

    A line whose first token starts with one of the ASCII characters
    ``comments`` is a comment, and the first comment of the form
    ``# vertices N ...`` (as written by :func:`write_edge_list`) fixes
    the vertex count, so isolated trailing vertices survive a round
    trip.  Every other non-blank line is an edge: two ids, each an
    optional sign and ASCII digits within int64, then an optional
    weight in Python float syntax; further fields are ignored.  Lines
    end at ``\\n``, ``\\r\\n`` or ``\\r``; whitespace is ASCII.

    The file is parsed by array passes over its bytes, with no Python
    object per line or edge.  A bad file raises :class:`ValueError`
    naming ``file, line N`` of its first bad line and the reason, never
    the line's content (DESIGN.md, "Graph ingest").
    """
    return _graph_of(path, *_edge_fields(path, comments))


def _edge_fields(path: str | Path, comments: str):
    """``(u, v, w, num_vertices)`` of an edge-list file; see
    :func:`read_edge_list`.  Only these outlive the call, so the token
    arrays are freed before the graph is built."""
    with open(path, "rb") as handle:
        text = b" " * 8 + handle.read() + b" "  # room for :func:`_words`
    seen = None  # of an undecodable file: the lines read before the bad bytes
    if not text.isascii():
        import locale  # the non-ASCII path only: keeps it off ``import repro``

        try:
            str(memoryview(text)[8:-1], locale.getpreferredencoding(False))
        except UnicodeDecodeError as exc:
            seen = _lines_before(text[8:-1], exc)
    buf = np.frombuffer(text, dtype=np.uint8)
    start, end, lines, first, count = _tokens(text, buf)
    comment = np.isin(buf[start[first]], np.frombuffer(comments.encode("ascii"), np.uint8))
    header_at, num_vertices = _header(buf, start, end, first[comment], count[comment])
    where, first, count = lines[~comment], first[~comment], count[~comment]

    # The first bad line, by the rules of a line-by-line read: a field
    # that does not parse or a short line, whichever comes first (unless
    # the read met undecodable bytes before it); then an id beyond
    # int64, a negative id, a non-finite weight.
    short = np.flatnonzero(count < 2)
    stop = int(short[0]) if short.size else count.size
    first, count = first[:stop], count[:stop]
    u, u_digits, u_big = _ids(buf, start[first], end[first])
    v, v_digits, v_big = _ids(buf, start[first + 1], end[first + 1])
    heavy = count >= 3
    third = first[heavy] + 2
    w = np.ones(stop)
    bad_weight = np.zeros(stop, dtype=bool)
    w[heavy], bad_weight[heavy] = _weights(buf, start[third], end[third])
    bad_id = ~(u_digits & v_digits)
    bad = np.flatnonzero(bad_id | bad_weight)
    at = int(bad[0]) if bad.size else stop
    if at < where.size and (seen is None or where[at] < seen):
        if at == stop:
            reason = "expected 'u v [w]'"
        else:
            reason = "vertex ids must be integers" if bad_id[at] else "edge weight must be a number"
        raise _line_error(path, int(where[at]) + 1, reason)
    if seen is not None:
        raise _not_text(path)
    for bad, reason in (
        (u_big | v_big, "vertex ids must fit in 64 bits"),
        ((u < 0) | (v < 0), "vertex ids must be non-negative"),
        (~np.isfinite(w), "edge weight must be finite"),
    ):
        if bad.any():
            raise _line_error(path, int(where[np.argmax(bad)]) + 1, reason)
    if header_at is not None and num_vertices is None:
        line = int(lines[comment][header_at]) + 1
        raise _line_error(path, line, "vertex count must fit in 64 bits")
    return u, v, w, num_vertices


def _lines_before(data: bytes, exc: UnicodeDecodeError) -> int:
    """How many lines a text-mode read of ``data`` yields before its
    decoder fails as ``exc`` reports.

    Such a read decodes 8 KiB chunks as lines are asked for, so it meets
    a bad byte with the chunk that holds it (a cut-off sequence with the
    byte after it), and a sequence the end of the file cuts off only at
    the end; a chunk's last ``"\\r"`` waits for the next chunk.
    """
    if exc.reason == "unexpected end of data":
        cut = exc.start
    else:
        reveal = exc.end if exc.reason == "invalid continuation byte" else exc.start
        cut = reveal - reveal % 8192
    head = data[:cut].removesuffix(b"\r")
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


def _tokens(text: bytes, buf: np.ndarray):
    """Tokens and lines of ``text`` (``buf`` is its bytes).

    Returns ``(start, end, lines, first, count)``: token ``i`` is the
    run of non-space bytes ``[start[i], end[i])``; ``lines`` holds the
    0-based numbers of the non-blank lines, ``first`` and ``count``
    each one's first token and token count.  ``text`` must begin and
    end with a space.
    """
    space = np.frombuffer(text.translate(_SPACE), dtype=bool)
    bounds = np.flatnonzero(space[1:] != space[:-1])  # start, end, start, ...
    bounds += 1
    del space
    start, end = bounds[0::2], bounds[1::2]
    breaks = np.flatnonzero(buf == 10)
    if b"\r" in text:  # so does a "\r" that no "\n" follows
        cr = np.flatnonzero(buf == 13)
        breaks = np.union1d(breaks, cr[buf[cr + 1] != 10])
    first = np.searchsorted(start, np.concatenate(([0], breaks + 1)))
    del breaks
    count = np.diff(first, append=start.size)
    lines = np.flatnonzero(count)
    return start, end, lines, first[lines], count[lines]


def _words(buf: np.ndarray) -> np.ndarray:
    """Every 8-byte window of ``buf`` as a little-endian uint64 (a view):
    element ``i`` holds bytes ``i .. i + 7``, byte ``i`` lowest."""
    return np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _header(buf, start, end, first, count):
    """The first ``# vertices N`` comment, as ``(index into first, N)``.

    ``first``/``count`` give each comment line's tokens; ``N`` is
    ``None`` when it does not fit in int64, and both are ``None``
    without a header.
    """
    at = np.flatnonzero(count >= 3)
    name = first[at] + 1
    at = at[(end[name] - start[name] == 8) & (_words(buf)[end[name] - 8] == _VERTICES)]
    value, digits, big = _unsigned(buf, start[first[at] + 2], end[first[at] + 2])
    if not digits.any():
        return None, None
    i = int(np.argmax(digits))
    return int(at[i]), None if big[i] or value[i] >= 2**63 else int(value[i])


def _ids(buf, start, end):
    """Tokens ``[start, end)`` as vertex ids: ``(int64 value, well
    formed, beyond int64)``.  An id is an optional sign and digits."""
    sign = buf[start]
    minus = sign == 45
    value, digits, big = _unsigned(buf, start + (minus | (sign == 43)), end)
    big |= value > np.uint64(2**63 - 1) + minus
    value = value.view(np.int64)
    np.negative(value, out=value, where=minus)
    return value, digits, big


def _unsigned(buf, start, end):
    """Byte runs ``[start, end)`` of ``buf`` read as decimal integers.

    Returns ``(value, digits, big)``: ``digits`` marks the non-empty
    runs of ASCII digits, and for those ``value`` (uint64) is the number
    unless ``big`` marks it as ``10**19`` or more.  Pass ``k`` reads the
    ``k``-th 8 digits from the right as one word of :func:`_words`, so
    a run of up to 8 digits takes one pass; bytes left of the last 24
    are checked in one reduction per run, so a long run costs no more
    passes.
    """
    length = end - start
    value = np.zeros(length.size, dtype=np.uint64)
    digits = length > 0
    big = np.zeros(length.size, dtype=bool)
    words = _words(buf)
    for k in range(min(3, -(-int(length.max(initial=0)) // 8))):
        rows = np.flatnonzero(length > 8 * k) if k else slice(None)
        ok, part = _eight_digits(words[end[rows] - 8 * k - 8], np.minimum(length[rows] - 8 * k, 8))
        digits[rows] &= ok
        if k == 2:  # digits 17 to 24: at most three, for below 10**19
            big[rows] |= part >= 1000
        part *= np.uint64(10 ** (8 * k))
        value[rows] += part
    long = np.flatnonzero(length > 24)
    if long.size:  # further left, only zeros keep it below 10**19
        cuts = np.column_stack((start[long], end[long] - 24)).ravel()
        digits[long] &= np.logical_and.reduceat(buf - np.uint8(48) <= 9, cuts)[::2]
        big[long] |= np.logical_or.reduceat(buf != 48, cuts)[::2]
    return value, digits, big


def _eight_digits(word: np.ndarray, digits: np.ndarray):
    """Whether each word (modified in place) holds only ASCII digits in
    its top ``digits`` bytes, and their value.

    SWAR arithmetic on the whole word, the bytes below read as ``"0"``:
    simdjson's ``is_made_of_eight_digits_fast`` check, then :data:`_SWAR`.
    """
    word &= _KEEP[digits]
    word |= _FILL[digits]
    high = np.uint64(0xF0F0F0F0F0F0F0F0)
    ok = word & high
    ok |= (word + np.uint64(0x0606060606060606) & high) >> np.uint64(4)
    ok = ok == np.uint64(0x3333333333333333)
    for mask, factor, shift in _SWAR:
        word &= mask
        word *= factor
        word >>= shift
    return ok, word


def _weights(buf, start, end):
    """Tokens ``[start, end)`` as float64, and which fail to parse.

    A run of at most 15 digits converts exactly through :func:`_unsigned`;
    the rest go to NumPy's float parser (Python's ``float`` syntax),
    batched by width class so one long token does not widen every row.
    Of the tokens the parser rejects, the first of each batch is marked
    — enough to name the file's first bad line.
    """
    value, digits, _ = _unsigned(buf, start, end)
    out = value.astype(np.float64)
    bad = np.zeros(start.size, dtype=bool)
    rest = np.flatnonzero(~digits | (end - start > 15))
    if not rest.size:
        return out, bad
    length = end[rest] - start[rest]
    pad = int(length.max())  # room before every token for its window
    padded = np.concatenate((np.full(pad, 32, dtype=np.uint8), buf))
    batch = np.ceil(np.log2(length)).astype(np.int64)
    for size in np.unique(batch):
        rows = rest[batch == size]
        width = int(length[batch == size].max())
        cells = np.lib.stride_tricks.sliding_window_view(padded, width)[end[rows] + pad - width]
        outside = np.arange(width) < width - length[batch == size][:, None]
        # The parser would take a NUL as the end and Unicode digits as
        # digits; only printable ASCII can spell a number here.
        bad[rows] = ~(outside | ((cells > 32) & (cells < 127))).all(axis=1)
        cells[outside] = 32  # leading spaces, which the parser skips
        keep = ~bad[rows]
        text = cells[keep].view(f"S{width}").ravel()
        try:
            out[rows[keep]] = text.astype(np.float64)
        except ValueError:
            bad[rows[keep][_first_rejected(text)]] = True
    return out, bad


def _first_rejected(text: np.ndarray) -> int:
    """Index of the first string NumPy's float parser rejects, by bisection."""
    lo, hi = 0, text.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            text[lo:mid].astype(np.float64)
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


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
