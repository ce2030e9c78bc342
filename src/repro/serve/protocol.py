"""Wire protocol of ``repro.serve``: payload shapes and error codes.

The protocol is JSON over HTTP/1.1 (stdlib only; documented in
``docs/API.md``).  Every response body is a JSON object; errors are::

    {"error": {"code": "<machine code>", "message": "<human text>"}}

with the HTTP status mirroring the code (see :data:`ERROR_STATUS`).
This module owns the transport-free pieces: the :class:`ServeError`
exception the server raises and serialises, decoding of edge-batch and
graph-source payloads, and response envelope helpers — shared by the
server, the client, and the tests.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_STATUS",
    "ServeError",
    "decode_batch",
    "decode_graph_spec",
    "error_body",
    "result_payload",
]

#: Version segment of every route (``/v1/...``).
PROTOCOL_VERSION = "v1"

#: Error code → HTTP status.  The code set is part of the public
#: contract; clients switch on codes, never on message text.
ERROR_STATUS: dict[str, int] = {
    "bad_request": 400,        # malformed JSON / missing field / bad value
    "invalid_batch": 400,      # batch rejected (e.g. removing a missing edge)
    "vertex_out_of_range": 400,
    "invalid_name": 400,
    "session_exists": 409,
    "session_busy": 409,       # evict/delete raced an in-flight apply
    "session_not_found": 404,
    "not_found": 404,          # unknown route
    "method_not_allowed": 405,
    "body_too_large": 413,     # Content-Length over the server's cap
    "headers_too_large": 431,  # a header line or the header count over a cap
    "server_error": 500,
    "shutting_down": 503,
}


class ServeError(Exception):
    """A protocol-level failure with a machine-readable code.

    ``cid`` is filled in by :class:`~repro.serve.client.ServeClient` from
    the ``X-Repro-Cid`` response header, so a caller holding a raised
    error can grep the server's structured log for the exact request.
    """

    def __init__(self, code: str, message: str, *, cid: str | None = None) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.cid = cid

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]


def error_body(code: str, message: str) -> dict[str, Any]:
    """The error envelope for a response body."""
    return {"error": {"code": code, "message": message}}


def _ids(values: Any) -> np.ndarray:
    """JSON vertex ids as a flat object array, each value's type intact.

    No cast: an ``int64`` cast would turn ``1.7`` or ``true`` into a
    vertex id.  The graph layer's validator
    (:func:`repro.graph.build._vertex_ids`) rejects those instead.
    """
    return np.asarray(values, dtype=object).ravel()


def decode_batch(
    payload: dict[str, Any],
) -> tuple[tuple | None, tuple | None]:
    """Decode a ``/batch`` request body into ``(add, remove)`` tuples.

    Shape::

        {"add":    {"u": [...], "v": [...], "w": [...] | null},
         "remove": {"u": [...], "v": [...]}}

    Either side may be absent or ``null``; ``w`` omitted/null means unit
    weights.  Raises :class:`ServeError` (``bad_request``) on shape
    problems.  Values pass through uncast: the batch validator in
    :mod:`repro.graph.build` rejects booleans, fractional ids, non-finite
    weights and out-of-range or missing edges later, against the
    session's graph (``invalid_batch``).
    """
    if not isinstance(payload, dict):
        raise ServeError("bad_request", "batch body must be a JSON object")
    add = payload.get("add")
    remove = payload.get("remove")
    add_t = remove_t = None
    if add is not None:
        if not isinstance(add, dict) or "u" not in add or "v" not in add:
            raise ServeError("bad_request", "add must carry 'u' and 'v' arrays")
        u = _ids(add["u"])
        v = _ids(add["v"])
        if u.shape != v.shape:
            raise ServeError("bad_request", "add.u and add.v must be parallel")
        w = add.get("w")
        if w is not None:
            try:
                w = np.asarray(w, dtype=np.float64).ravel()
            except (TypeError, ValueError) as exc:
                raise ServeError("bad_request", "add.w must be numeric") from exc
            if w.shape != u.shape:
                raise ServeError("bad_request", "add.w must be parallel to add.u")
        if u.size:
            add_t = (u, v, w)
    if remove is not None:
        if not isinstance(remove, dict) or "u" not in remove or "v" not in remove:
            raise ServeError("bad_request", "remove must carry 'u' and 'v' arrays")
        u = _ids(remove["u"])
        v = _ids(remove["v"])
        if u.shape != v.shape:
            raise ServeError("bad_request", "remove.u and remove.v must be parallel")
        if u.size:
            remove_t = (u, v)
    return add_t, remove_t


#: Generator families creatable through the API (small, deterministic
#: subset of ``python -m repro generate`` — enough for smoke tests and
#: benches without shipping a graph file).
_GENERATORS = ("social", "ba", "caveman", "road", "karate", "ring")


def decode_graph_spec(spec: dict[str, Any]):
    """Build the initial graph of a session from its creation payload.

    Exactly one source key::

        {"edges": {"u": [...], "v": [...], "w": [...] | null,
                   "num_vertices": n | null}}
        {"path": "graphs/road.txt"}              # any load_graph format
        {"generate": {"family": "social", "n": 1000, "m": 8, "seed": 0}}

    Returns a :class:`~repro.graph.csr.CSRGraph`.
    """
    if not isinstance(spec, dict):
        raise ServeError("bad_request", "graph spec must be a JSON object")
    sources = [key for key in ("edges", "path", "generate") if spec.get(key)]
    if len(sources) != 1:
        raise ServeError(
            "bad_request",
            "graph spec needs exactly one of 'edges', 'path', 'generate'",
        )
    source = sources[0]
    if source == "edges":
        from ..graph.build import from_edges

        edges = spec["edges"]
        if not isinstance(edges, dict) or "u" not in edges or "v" not in edges:
            raise ServeError("bad_request", "edges must carry 'u' and 'v' arrays")
        w = edges.get("w")
        n = edges.get("num_vertices")
        try:
            return from_edges(
                edges["u"],
                edges["v"],
                w,
                num_vertices=int(n) if n is not None else None,
            )
        except (TypeError, ValueError) as exc:
            raise ServeError("bad_request", str(exc)) from exc
    if source == "path":
        from ..graph.io import load_graph

        try:
            return load_graph(str(spec["path"]))
        except (OSError, ValueError) as exc:
            raise ServeError("bad_request", f"cannot load graph: {exc}") from exc
    gen = spec["generate"]
    if not isinstance(gen, dict) or gen.get("family") not in _GENERATORS:
        raise ServeError(
            "bad_request",
            f"generate.family must be one of {', '.join(_GENERATORS)}",
        )
    from ..graph import generators

    family = gen["family"]
    n = int(gen.get("n", 1000))
    m = int(gen.get("m", 8))
    seed = int(gen.get("seed", 0))
    try:
        if family == "social":
            return generators.social_network(n, m, rng=seed)
        if family == "ba":
            return generators.barabasi_albert(n, m, rng=seed)
        if family == "caveman":
            graph, _ = generators.caveman(max(n // max(m, 2), 2), max(m, 2))
            return graph
        if family == "road":
            side = max(4, int(np.sqrt(n)))
            return generators.road_grid(side, side, rng=seed)
        if family == "ring":
            return generators.ring(max(n, 3))
        return generators.karate_club()
    except (TypeError, ValueError) as exc:
        raise ServeError("bad_request", f"cannot generate graph: {exc}") from exc


def result_payload(result, *, coalesced: int) -> dict[str, Any]:
    """The JSON body answering every request folded into one apply.

    ``coalesced`` is the number of requests merged into this apply — 1
    means no coalescing happened for this request.
    """
    return {
        "batch": result.batch,
        "coalesced": coalesced,
        "mode": result.mode,
        "modularity": result.modularity,
        "num_communities": result.num_communities,
        "edges_added": result.edges_added,
        "edges_removed": result.edges_removed,
        "pairs_changed": result.pairs_changed,
        "frontier_size": result.frontier_size,
        "frontier_fraction": result.frontier_fraction,
        "full_rerun": result.full_rerun,
        "q_full": result.q_full,
        "nmi_vs_full": result.nmi_vs_full,
        "seconds": result.seconds,
    }
