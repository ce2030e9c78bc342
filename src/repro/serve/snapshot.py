"""Session persistence: round-trip a ``StreamSession`` to disk and back.

A snapshot is two files next to each other, ``<base>.npz`` +
``<base>.json``:

* the ``.npz`` holds every array — CSR ``indptr`` / ``indices`` /
  ``weights``, the session ``membership``, the last result's flat
  ``result_membership`` and its per-level partitions ``level_<k>``
  (float-free int64 / float64 arrays, bit-exact by construction);
* the JSON sidecar (schema ``repro.serve-snapshot/1``) holds the full
  :class:`~repro.stream.StreamConfig` (:meth:`~repro.stream.StreamConfig.
  to_dict`), its trajectory fingerprint, the batch counter, the scalar
  result fields, and the session's trajectory state — the initial
  :class:`~repro.trace.RunReport` plus the per-batch reports, as
  ``repro.trace/1`` documents.  Python floats round-trip JSON exactly
  (shortest-repr), so the restored modularity is bit-equal too.

:func:`restore_session` rebuilds the session via
:meth:`~repro.stream.StreamSession.resume` — **without** re-running the
initial clustering — so a restored session's next ``apply()`` is
bit-identical to the uninterrupted original (property-tested in
``tests/serve/test_snapshot.py``).
"""

from __future__ import annotations

import json
import math
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from ..graph.build import find_entries
from ..graph.csr import CSRGraph
from ..result import StreamResult
from ..stream import StreamConfig, StreamSession
from ..trace import NullTracer, RunReport, Tracer

__all__ = ["SNAPSHOT_SCHEMA", "snapshot_session", "restore_session", "snapshot_paths"]

SNAPSHOT_SCHEMA = "repro.serve-snapshot/1"

#: Scalar / list result fields persisted in the sidecar (array fields —
#: membership and the per-level partitions — live in the ``.npz``).
_RESULT_SCALARS = (
    "modularity",
    "modularity_per_level",
    "sweeps_per_level",
    "batch",
    "edges_added",
    "edges_removed",
    "pairs_changed",
    "frontier_size",
    "frontier_fraction",
    "mode",
    "full_rerun",
    "q_full",
    "nmi_vs_full",
    "seconds",
)


def snapshot_paths(base: str | Path) -> tuple[Path, Path]:
    """The ``(.npz, .json)`` pair a snapshot of ``base`` occupies.

    Plain string concatenation, not ``with_suffix`` — session names may
    contain dots.
    """
    return Path(f"{base}.npz"), Path(f"{base}.json")


def snapshot_session(session: StreamSession, base: str | Path) -> Path:
    """Persist ``session`` under ``<base>.npz`` + ``<base>.json``.

    Returns the sidecar path.  Writing is atomic per file (temp +
    rename), so a reader never sees a half-written snapshot; the sidecar
    is written last and is the marker of a complete snapshot.
    """
    npz_path, json_path = snapshot_paths(base)
    npz_path.parent.mkdir(parents=True, exist_ok=True)

    result = session.result
    arrays: dict[str, np.ndarray] = {
        "indptr": session.graph.indptr,
        "indices": session.graph.indices,
        "weights": session.graph.weights,
        "membership": session.membership,
        "result_membership": result.membership,
    }
    for k, level in enumerate(result.levels):
        arrays[f"level_{k}"] = level

    result_state: dict[str, Any] = {
        "type": type(result).__name__,
        "num_levels": len(result.levels),
        "level_sizes": [list(pair) for pair in result.level_sizes],
    }
    for name in _RESULT_SCALARS:
        if hasattr(result, name):
            result_state[name] = getattr(result, name)

    sidecar = {
        "schema": SNAPSHOT_SCHEMA,
        "batches": session.batches,
        "config": session.config.to_dict(),
        "fingerprint": session.config.fingerprint(),
        "num_vertices": session.graph.num_vertices,
        "num_edges": session.graph.num_edges,
        "result": result_state,
        "reports": {
            "initial": (
                session.initial_report.to_dict()
                if session.initial_report is not None
                else None
            ),
            "batches": [report.to_dict() for report in session.reports],
        },
    }

    tmp = Path(f"{npz_path}.tmp")
    with open(tmp, "wb") as handle:
        np.savez(handle, **arrays)
    tmp.replace(npz_path)
    tmp = Path(f"{json_path}.tmp")
    tmp.write_text(json.dumps(sidecar, indent=2, allow_nan=False) + "\n")
    tmp.replace(json_path)
    return json_path


def restore_session(
    base: str | Path,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> StreamSession:
    """Rebuild the session persisted under ``<base>.npz`` + ``<base>.json``.

    The restored session resumes exactly where the original stopped:
    same graph, membership, config, batch counter, last result and
    accumulated reports — its next :meth:`~repro.stream.StreamSession.
    apply` is bit-identical to the uninterrupted session's.

    Both files are checked before anything is built from them: a
    snapshot that is unreadable, misses a key, or holds a value no
    session could have written (a label outside ``[0, n)``, a float
    label, a non-finite weight, a CSR that is not canonical and
    symmetric) raises :class:`ValueError` naming the file, instead of
    restoring a session whose next batch fails.
    """
    npz_path, json_path = snapshot_paths(base)
    if not json_path.exists():
        raise FileNotFoundError(f"no snapshot sidecar at {json_path}")
    try:
        sidecar = json.loads(json_path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"{json_path}: unreadable snapshot sidecar ({exc})") from None
    if not isinstance(sidecar, dict) or sidecar.get("schema") != SNAPSHOT_SCHEMA:
        schema = sidecar.get("schema") if isinstance(sidecar, dict) else None
        raise ValueError(f"{json_path}: schema {schema!r} is not {SNAPSHOT_SCHEMA!r}")
    with _named(json_path):
        state = sidecar["result"]
        num_levels = state["num_levels"]
        _require(
            isinstance(num_levels, int) and num_levels >= 0,
            "result.num_levels must be a non-negative integer",
        )
        batches = sidecar.get("batches", 0)
        _require(
            isinstance(batches, int) and batches >= 0,
            "batches must be a non-negative integer",
        )
        modularity = state.get("modularity", 0.0)
        _require(
            isinstance(modularity, (int, float)) and math.isfinite(modularity),
            "result.modularity must be a finite number",
        )
        config = StreamConfig.from_dict(sidecar["config"])
        level_sizes = [tuple(pair) for pair in state["level_sizes"]]
        reports = sidecar.get("reports", {})
        initial = reports.get("initial")
        batch_reports = [RunReport.from_dict(r) for r in reports.get("batches", [])]
        initial_report = RunReport.from_dict(initial) if initial else None
    with _named(npz_path):
        _require(zipfile.is_zipfile(npz_path), "not an npz archive")
        keys = (
            "indptr", "indices", "weights", "membership", "result_membership",
            *(f"level_{k}" for k in range(num_levels)),
        )
        with np.load(npz_path) as arrays:
            missing = [key for key in keys if key not in arrays.files]
            _require(not missing, f"missing arrays {missing}")
            loaded = {key: arrays[key] for key in keys}
        graph = _checked_graph(loaded)
        n = graph.num_vertices
        membership = _labels(loaded, "membership", n, n)
        result_membership = _labels(loaded, "result_membership", n, n)
        levels = []
        for k in range(num_levels):
            # Level k + 1 maps the communities of level k: one entry each.
            size = n if k == 0 else int(levels[-1].max(initial=-1)) + 1
            levels.append(_labels(loaded, f"level_{k}", size, n, exact=k == 0))

    kwargs: dict[str, Any] = {
        name: state[name] for name in _RESULT_SCALARS if name in state
    }
    result = StreamResult(
        levels=levels,
        level_sizes=level_sizes,
        membership=result_membership,
        **kwargs,
    )
    return StreamSession.resume(
        graph,
        config,
        result=result,
        membership=membership,
        batches=batches,
        tracer=tracer,
        reports=batch_reports,
        initial_report=initial_report,
    )


@contextmanager
def _named(path: Path):
    """Re-raise any failure inside the block as ``ValueError`` naming ``path``."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - every corruption gets one error
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else f"{exc}"
        raise ValueError(f"{path}: corrupt snapshot: {reason}") from None


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise ValueError(reason)


def _checked_graph(arrays: dict[str, np.ndarray]) -> CSRGraph:
    """The snapshot's graph, if its arrays form a canonical symmetric CSR."""
    indptr, indices, weights = arrays["indptr"], arrays["indices"], arrays["weights"]
    for name, array in (("indptr", indptr), ("indices", indices)):
        _require(array.dtype.kind in "iu", f"{name} must hold integers")
    _require(weights.dtype.kind in "iuf", "weights must hold real numbers")
    _require(bool(np.isfinite(weights).all()), "weights must be finite")
    graph = CSRGraph(indptr=indptr, indices=indices, weights=weights)
    _require(graph.canonical, "CSR rows must be sorted without repeated entries")
    # Every stored entry (u, v) has its mirror (v, u) with the same weight.
    pos, found = find_entries(graph, graph.indices, graph.vertex_of_edge)
    _require(
        bool(found.all()) and np.array_equal(graph.row_weights[pos], graph.weights),
        "CSR must store every edge in both directions with one weight",
    )
    return graph


def _labels(
    arrays: dict[str, np.ndarray], key: str, size: int, n: int, *, exact: bool = True
) -> np.ndarray:
    """``arrays[key]`` as integer labels in ``[0, n)``: ``size`` of them,
    or at least ``size`` unless ``exact``."""
    labels = arrays[key]
    _require(labels.dtype.kind in "iu", f"{key} must hold integer labels")
    _require(
        labels.ndim == 1 and (labels.size == size if exact else labels.size >= size),
        f"{key} must have {'' if exact else 'at least '}{size} labels, "
        f"got shape {labels.shape}",
    )
    _require(
        labels.size == 0 or (int(labels.min()) >= 0 and int(labels.max()) < n),
        f"{key} labels must lie in [0, {n})",
    )
    return labels.astype(np.int64, copy=False)
