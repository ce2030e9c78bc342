"""Persistent perf trajectory: an append-only store of benchmark runs.

One :class:`TrajectoryEntry` records one traced benchmark run — keyed by
``(graph, engine, config fingerprint, commit)`` — with a flat ``metrics``
dict (total / optimization / aggregation seconds, modularity, sweeps,
level-0 MTEPS) extracted from its :class:`~repro.trace.RunReport`.  The
:class:`TrajectoryStore` appends entries to a JSON file
(``benchmarks/results/BENCH_trajectory.json`` by convention) and answers
questions like *"how has mod-opt time on uk-2002 moved over the last N
runs?"* via :meth:`TrajectoryStore.series`.

The **config fingerprint** hashes every tunable that changes what a
runtime number means (engine, thresholds, bucket limits, graph scale…),
so entries are only ever compared within a fixed configuration — the
property the regression gate (:mod:`repro.obs.gate`) depends on.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

try:  # POSIX only; Windows falls back to unlocked appends
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..trace import RunReport

__all__ = [
    "TRAJECTORY_SCHEMA",
    "TrajectoryEntry",
    "TrajectoryStore",
    "fingerprint",
    "config_fingerprint",
    "entry_from_report",
    "current_commit",
]

TRAJECTORY_SCHEMA = "repro.bench-trajectory/1"

#: ``meta`` keys that describe one run, not its configuration — they
#: must not enter the fingerprint or identical configs would never match.
_VOLATILE_META = frozenset(
    {"kind", "seconds", "commit", "timestamp", "fingerprint", "initial"}
)


def fingerprint(mapping: dict[str, Any]) -> str:
    """12-hex-digit digest of a mapping, order-independent."""
    canonical = json.dumps(mapping, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def config_fingerprint(config: Any = None, **extra: Any) -> str:
    """Fingerprint a solver configuration (plus e.g. graph / scale).

    ``config`` may be a mapping or a :class:`~repro.core.GPULouvainConfig`
    (any dataclass): primitive fields — numbers, strings, bools, tuples
    thereof — are hashed; structured fields (device spec, cost
    parameters) are reduced to their string form.  Keyword arguments are
    merged in and win over config fields of the same name.
    """
    payload: dict[str, Any] = {}
    if config is not None:
        if isinstance(config, dict):
            payload.update(config)
        else:  # dataclass-like: take its public fields
            fields = getattr(config, "__dataclass_fields__", None)
            if fields is None:
                raise TypeError(f"cannot fingerprint {type(config).__name__}")
            for name in fields:
                payload[name] = getattr(config, name)
    payload.update(extra)
    return fingerprint(payload)


def current_commit(cwd: str | Path | None = None) -> str:
    """Short git commit hash of the working tree (``unknown`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


@dataclass(frozen=True)
class TrajectoryEntry:
    """One benchmark run's point on the perf trajectory."""

    graph: str
    engine: str
    fingerprint: str
    commit: str
    timestamp: float
    metrics: dict[str, float] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str, str]:
        """The comparison key: ``(graph, engine, fingerprint)``."""
        return (self.graph, self.engine, self.fingerprint)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form."""
        return {
            "graph": self.graph,
            "engine": self.engine,
            "fingerprint": self.fingerprint,
            "commit": self.commit,
            "timestamp": self.timestamp,
            "metrics": dict(self.metrics),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrajectoryEntry":
        """Rebuild an entry from its :meth:`to_dict` form."""
        return cls(
            graph=str(data["graph"]),
            engine=str(data["engine"]),
            fingerprint=str(data["fingerprint"]),
            commit=str(data.get("commit", "unknown")),
            timestamp=float(data.get("timestamp", 0.0)),
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            meta=dict(data.get("meta", {})),
        )


def _report_metrics(report: RunReport) -> dict[str, float]:
    """Flat metric dict of one report's span tree + result payload."""
    total = sum(span.seconds for span in report.spans)
    opt = agg = 0.0
    sweeps = 0.0
    level0_mteps = None
    for root in report.spans:
        for level in root.find("level"):
            for child in level.children:
                if child.name == "optimization":
                    opt += child.seconds
                    sweeps += child.counters.get("sweeps", 0)
                elif child.name == "aggregation":
                    agg += child.seconds
            # The first level 0 in tree order is the run's own: a nested
            # finishing run (multigpu) or repair pass (leiden) comes later.
            if level.attributes.get("level") == 0 and level0_mteps is None:
                level0_mteps = 0.0
                opt0 = next(
                    (c for c in level.children if c.name == "optimization"), None
                )
                edges = level.attributes.get("num_edges", 0)
                if opt0 is not None and opt0.seconds > 0:
                    level0_mteps = (
                        2.0 * edges * opt0.counters.get("sweeps", 0)
                        / opt0.seconds / 1e6
                    )
    metrics = {
        "total_seconds": total,
        "optimization_seconds": opt,
        "aggregation_seconds": agg,
        "sweeps": sweeps,
        "level0_mteps": level0_mteps or 0.0,
    }
    for name in ("modularity", "num_communities", "num_levels"):
        value = report.result.get(name)
        if isinstance(value, (int, float)):
            metrics[name] = float(value)
    return metrics


def entry_from_report(
    report: RunReport,
    *,
    graph: str | None = None,
    engine: str | None = None,
    fingerprint_: str | None = None,
    commit: str | None = None,
    timestamp: float | None = None,
) -> TrajectoryEntry:
    """Build a :class:`TrajectoryEntry` from one run report.

    ``graph`` / ``engine`` / the fingerprint default to the report's
    ``meta`` (``meta["fingerprint"]`` if present, else a fingerprint of
    the non-volatile meta fields — which include the thresholds and
    scale the benchmark ran at).  Raises :class:`ValueError` when the
    graph cannot be determined, since an unkeyed entry is useless.
    """
    meta = report.meta
    graph = graph or meta.get("graph")
    if not graph:
        raise ValueError("trajectory entries need a graph name (meta['graph'])")
    engine = engine or meta.get("engine") or meta.get("solver") or "unknown"
    if fingerprint_ is None:
        fingerprint_ = meta.get("fingerprint")
    if fingerprint_ is None:
        config_meta = {
            k: v for k, v in meta.items() if k not in _VOLATILE_META
        }
        config_meta["engine"] = engine
        fingerprint_ = fingerprint(config_meta)
    return TrajectoryEntry(
        graph=str(graph),
        engine=str(engine),
        fingerprint=str(fingerprint_),
        commit=commit if commit is not None else current_commit(),
        timestamp=timestamp if timestamp is not None else time.time(),
        metrics=_report_metrics(report),
        meta={k: v for k, v in meta.items() if k not in ("kind",)},
    )


class TrajectoryStore:
    """Append-only JSON store of :class:`TrajectoryEntry` rows.

    The file is ``{"schema": "repro.bench-trajectory/1", "entries":
    [...]}``; :meth:`append` rewrites it atomically (temp file + rename)
    after extending the existing history, never truncating it.

    Concurrency: the temp-file + rename makes readers immune to torn
    writes, but the read→extend→replace cycle itself is not atomic — two
    concurrent appenders could both read N entries and both write N+1,
    silently losing one append (e.g. two benchmark processes reporting
    at once).  :meth:`append` therefore takes an exclusive ``fcntl``
    lock on a sidecar ``<file>.lock`` for the whole cycle, serialising
    writers while keeping lock state out of the data file (a rename
    would drop locks held on the file itself).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @property
    def lock_path(self) -> Path:
        """Sidecar lock file serialising concurrent appenders."""
        return self.path.with_suffix(self.path.suffix + ".lock")

    @contextlib.contextmanager
    def _locked(self):
        """Hold the exclusive append lock (no-op where flock is missing)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.lock_path, "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def load(self) -> list[TrajectoryEntry]:
        """All entries, file order (chronological for an honest history)."""
        if not self.path.exists():
            return []
        data = json.loads(self.path.read_text())
        if data.get("schema") != TRAJECTORY_SCHEMA:
            raise ValueError(
                f"{self.path}: schema {data.get('schema')!r} is not "
                f"{TRAJECTORY_SCHEMA!r}"
            )
        return [TrajectoryEntry.from_dict(e) for e in data.get("entries", [])]

    def append(self, entries: list[TrajectoryEntry] | TrajectoryEntry) -> int:
        """Append entries and persist; returns the new total count.

        The read→extend→replace cycle runs under the exclusive sidecar
        lock, so concurrent appenders serialise instead of losing
        entries to a read-modify-write race.
        """
        if isinstance(entries, TrajectoryEntry):
            entries = [entries]
        with self._locked():
            history = self.load()
            history.extend(entries)
            payload = {
                "schema": TRAJECTORY_SCHEMA,
                "entries": [e.to_dict() for e in history],
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            tmp.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
            tmp.replace(self.path)
        return len(history)

    def keys(self) -> list[tuple[str, str, str]]:
        """Distinct ``(graph, engine, fingerprint)`` keys, first-seen order."""
        seen: dict[tuple[str, str, str], None] = {}
        for entry in self.load():
            seen.setdefault(entry.key, None)
        return list(seen)

    def series(
        self,
        *,
        graph: str | None = None,
        engine: str | None = None,
        fingerprint: str | None = None,
        metric: str = "optimization_seconds",
        last: int | None = None,
    ) -> list[tuple[TrajectoryEntry, float]]:
        """The trajectory of one metric, filtered and optionally truncated.

        Answers "how has mod-opt time on uk-2002 moved over the last N
        runs": ``series(graph="uk-2002", metric="optimization_seconds",
        last=N)``.  Entries missing the metric are skipped.
        """
        rows = [
            (entry, entry.metrics[metric])
            for entry in self.load()
            if metric in entry.metrics
            and (graph is None or entry.graph == graph)
            and (engine is None or entry.engine == engine)
            and (fingerprint is None or entry.fingerprint == fingerprint)
        ]
        return rows[-last:] if last else rows

    def latest(self) -> dict[tuple[str, str, str], TrajectoryEntry]:
        """The most recent entry per ``(graph, engine, fingerprint)`` key."""
        latest: dict[tuple[str, str, str], TrajectoryEntry] = {}
        for entry in self.load():
            latest[entry.key] = entry
        return latest
