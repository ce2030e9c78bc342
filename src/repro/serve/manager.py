"""Multi-tenant session ownership: named sessions, LRU eviction, restore.

The :class:`SessionManager` is the transport-free heart of
``repro.serve``: it owns many named :class:`~repro.stream.StreamSession`
instances, keeps at most ``max_sessions`` (and optionally
``max_bytes``) of them resident, and transparently round-trips the rest
to disk (:mod:`repro.serve.snapshot`).  ``get()`` on an evicted name
restores it from its snapshot — callers never observe eviction except
as latency.  The HTTP layer (:mod:`repro.serve.server`) is a thin
wrapper over this class, so everything here is unit-testable without a
socket.

Eviction discipline: least-recently-used among the *unpinned* resident
sessions.  The server pins a session while an ``apply()`` runs in the
worker thread, so the budget enforcement can never snapshot a mid-batch
(torn) state; with no pins (the synchronous/library use) it is exact
LRU.  A session evicted for budget reasons is always snapshotted first —
eviction never loses state.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..graph.csr import CSRGraph
from ..obs.flight import NULL_FLIGHT, FlightRecorder, set_flight_recorder
from ..obs.metrics import NULL_REGISTRY, get_registry
from ..stream import StreamConfig, StreamSession
from ..trace import Tracer
from .snapshot import restore_session, snapshot_paths, snapshot_session

__all__ = ["ServeConfig", "SessionManager", "session_nbytes"]

#: Session names double as snapshot file stems — keep them path-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of a :class:`SessionManager` / serve deployment.

    Attributes
    ----------
    max_sessions:
        Resident-session cap; the LRU tail is evicted (snapshot + drop)
        past it.  ``0`` disables the cap.
    max_bytes:
        Resident-memory budget over the per-session byte estimate
        (:func:`session_nbytes`).  ``None`` disables it.  Both caps are
        soft against pinned sessions: a session mid-apply is never
        evicted, even if the budget is temporarily exceeded.
    snapshot_dir:
        Directory holding ``<name>.npz`` / ``<name>.json`` snapshots.
    trace:
        Attach a :class:`~repro.trace.Tracer` to every session so batch
        :class:`~repro.trace.RunReport` retrieval works.
    coalesce:
        Server-level default: merge request bursts into one ``apply()``
        per session (the manager itself does not queue).
    metrics:
        Record runtime metrics into the process-wide default
        :class:`~repro.obs.metrics.MetricsRegistry` (exposed by the
        server as ``GET /v1/metrics``).  ``False`` uses the inert
        :data:`~repro.obs.metrics.NULL_REGISTRY` — zero overhead, and
        the metrics endpoint answers 404.
    slow_request_seconds:
        Requests slower than this are logged as ``slow_request``
        (structured-log event; ``0`` logs every request).
    flight:
        Keep an always-on :class:`~repro.obs.flight.FlightRecorder`
        (bounded ring of recent spans / log lines / metric deltas)
        and serve it at ``GET /v1/debug/flight``.
    flight_bytes:
        Byte budget of the flight ring (default 1 MiB).
    flight_dir:
        Directory for crash-surviving flight journals
        (``flight-<pid>.jsonl``); ``None`` keeps the ring memory-only.
    exemplar_seconds:
        Latency observations at or above this attach a trace-id/cid
        exemplar to their histogram bucket (``0`` tags everything).
    stall_seconds:
        Watchdog window: a session apply making no progress for this
        long triggers a flight dump + ``worker_stalled`` log.  ``0``
        disables the watchdog.
    """

    max_sessions: int = 8
    max_bytes: int | None = None
    snapshot_dir: str | Path = "sessions"
    trace: bool = True
    coalesce: bool = True
    metrics: bool = True
    slow_request_seconds: float = 1.0
    flight: bool = True
    flight_bytes: int = 1 << 20
    flight_dir: str | Path | None = None
    exemplar_seconds: float = 0.05
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_sessions < 0:
            raise ValueError("max_sessions must be >= 0")
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if self.slow_request_seconds < 0:
            raise ValueError("slow_request_seconds must be >= 0")
        if self.flight_bytes <= 0:
            raise ValueError("flight_bytes must be positive")
        if self.exemplar_seconds < 0:
            raise ValueError("exemplar_seconds must be >= 0")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")


def session_nbytes(session: StreamSession) -> int:
    """Resident-memory estimate of one session (its big arrays).

    The graph's :attr:`~repro.graph.csr.CSRGraph.nbytes` (row store at
    capacity, row arrays, every cached array) plus the membership
    arrays, each array counted once.  Builds nothing: a stats or
    metrics poll must not materialize the flat arrays.
    """
    labels = {id(a): a.nbytes for a in (session.membership, session.result.membership)}
    return int(session.graph.nbytes + sum(labels.values()))


class SessionManager:
    """Owns named sessions with an LRU resident set and disk spillover."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        registry: Any = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides")
        self.config = config
        self.sessions: OrderedDict[str, StreamSession] = OrderedDict()
        self._pinned: set[str] = set()
        # Counters of the stats contract (docs/API.md).
        self.created = 0
        self.restored = 0
        self.evictions = 0
        self.snapshots = 0
        self.budget_evictions = 0
        # True while the resident-set budget is forcing evictions: set
        # whenever the latest admission (create/restore) had to evict,
        # cleared when an admission fits or residency shrinks.  /v1/health
        # reports "degraded" while this holds.
        self._budget_pressure = False
        if registry is None:
            registry = get_registry() if config.metrics else NULL_REGISTRY
        self.registry = registry
        if config.flight:
            journal = (
                Path(config.flight_dir) / f"flight-{os.getpid()}.jsonl"
                if config.flight_dir is not None
                else None
            )
            self.flight = FlightRecorder(config.flight_bytes, journal=journal)
        else:
            self.flight = NULL_FLIGHT
        set_flight_recorder(self.flight)
        self._init_metrics()

    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_created = reg.counter(
            "repro_serve_sessions_created_total", "Sessions created."
        )
        self._m_restored = reg.counter(
            "repro_serve_sessions_restored_total",
            "Sessions restored from snapshot on first touch.",
        )
        self._m_evicted = reg.counter(
            "repro_serve_sessions_evicted_total",
            "Sessions snapshotted and dropped from memory (all causes).",
        )
        self._m_budget_evicted = reg.counter(
            "repro_serve_budget_evictions_total",
            "Evictions forced by the session/byte budget.",
        )
        self._m_snapshots = reg.counter(
            "repro_serve_snapshots_total", "Session snapshots written."
        )
        reg.gauge(
            "repro_serve_sessions_resident",
            "Sessions currently resident in memory.",
            fn=lambda: float(len(self.sessions)),
        )
        reg.gauge(
            "repro_serve_resident_bytes",
            "Byte estimate of all resident sessions.",
            fn=lambda: float(self.resident_bytes()),
        )

    # ------------------------------------------------------------------ #
    # Naming and locating
    # ------------------------------------------------------------------ #
    @property
    def snapshot_dir(self) -> Path:
        return Path(self.config.snapshot_dir)

    def _base(self, name: str) -> Path:
        return self.snapshot_dir / name

    @staticmethod
    def validate_name(name: str) -> str:
        """Check a session name is path-safe; returns it unchanged."""
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid session name {name!r}: use 1-128 characters "
                "[A-Za-z0-9._-], not starting with '.' or '-'"
            )
        return name

    def snapshotted(self, name: str) -> bool:
        """Whether a complete snapshot of ``name`` exists on disk."""
        _, sidecar = snapshot_paths(self._base(name))
        return sidecar.exists()

    def has(self, name: str) -> bool:
        """Whether ``name`` is resident or snapshotted."""
        return name in self.sessions or self.snapshotted(name)

    def names(self) -> list[str]:
        """Every known session name (resident first, then disk-only)."""
        known = list(self.sessions)
        if self.snapshot_dir.is_dir():
            for sidecar in sorted(self.snapshot_dir.glob("*.json")):
                name = sidecar.name[: -len(".json")]
                if name not in self.sessions:
                    known.append(name)
        return known

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _new_tracer(self) -> Tracer | None:
        """A session tracer wired into the flight recorder (or None)."""
        if not self.config.trace:
            return None
        return Tracer(flight=self.flight)

    def create(
        self,
        name: str,
        graph: CSRGraph,
        config: StreamConfig | None = None,
        *,
        initial_membership: np.ndarray | None = None,
        overwrite: bool = False,
    ) -> StreamSession:
        """Create (and initially cluster) a new named session."""
        self.validate_name(name)
        if not overwrite and self.has(name):
            raise KeyError(f"session {name!r} already exists")
        session = StreamSession(
            graph,
            config or StreamConfig(),
            initial_membership=initial_membership,
            tracer=self._new_tracer(),
        )
        session.bind_metrics(self.registry, session=name)
        self.sessions[name] = session
        self.sessions.move_to_end(name)
        self.created += 1
        self._m_created.inc()
        self._enforce_budget(keep=name)
        return session

    def resident(self, name: str) -> StreamSession | None:
        """The named session if it is in memory, else ``None``; never restores.

        Touches the LRU position of a resident session.
        """
        session = self.sessions.get(name)
        if session is not None:
            self.sessions.move_to_end(name)
        return session

    def get(self, name: str) -> StreamSession:
        """The named session, restored from disk if evicted.

        Touches the LRU position.  Raises :class:`KeyError` for names
        that are neither resident nor snapshotted.
        """
        session = self.resident(name)
        if session is None:
            if not self.snapshotted(name):
                raise KeyError(f"unknown session {name!r}")
            session = restore_session(
                self._base(name),
                tracer=self._new_tracer(),
            )
            session.bind_metrics(self.registry, session=name)
            self.sessions[name] = session
            self.restored += 1
            self._m_restored.inc()
            self._enforce_budget(keep=name)
        return session

    def snapshot(self, name: str) -> Path:
        """Persist the named session to disk (stays resident)."""
        session = self.get(name)
        path = snapshot_session(session, self._base(name))
        self.snapshots += 1
        self._m_snapshots.inc()
        return path

    def evict(self, name: str) -> Path:
        """Snapshot the named session and drop it from memory."""
        if name in self._pinned:
            raise RuntimeError(f"session {name!r} is busy (apply in flight)")
        path = self.snapshot(name)
        del self.sessions[name]
        self.evictions += 1
        self._m_evicted.inc()
        self._budget_pressure = self._over_budget()
        return path

    def delete(self, name: str) -> None:
        """Forget the session entirely: memory and snapshot files."""
        if name in self._pinned:
            raise RuntimeError(f"session {name!r} is busy (apply in flight)")
        found = self.sessions.pop(name, None) is not None
        for path in snapshot_paths(self._base(name)):
            if path.exists():
                path.unlink()
                found = True
        if not found:
            raise KeyError(f"unknown session {name!r}")
        self._budget_pressure = self._over_budget()

    # ------------------------------------------------------------------ #
    # Pinning and budget
    # ------------------------------------------------------------------ #
    def pin(self, name: str) -> None:
        """Exempt a session from eviction (an apply is in flight)."""
        self._pinned.add(name)

    def unpin(self, name: str) -> None:
        self._pinned.discard(name)

    def resident_bytes(self) -> int:
        """Summed byte estimate of every resident session."""
        return sum(session_nbytes(s) for s in self.sessions.values())

    def _over_budget(self) -> bool:
        cfg = self.config
        if cfg.max_sessions and len(self.sessions) > cfg.max_sessions:
            return True
        return (
            cfg.max_bytes is not None
            and len(self.sessions) > 1
            and self.resident_bytes() > cfg.max_bytes
        )

    def _enforce_budget(self, *, keep: str | None = None) -> list[str]:
        """Evict LRU unpinned sessions until within budget.

        ``keep`` (the session just touched) is evicted last-resort only;
        with every candidate pinned the budget is allowed to overflow —
        correctness over bookkeeping.  Returns the evicted names.
        """
        evicted: list[str] = []
        while self._over_budget():
            victim = next(
                (
                    name
                    for name in self.sessions
                    if name not in self._pinned and name != keep
                ),
                None,
            )
            if victim is None:
                break
            self.evict(victim)
            evicted.append(victim)
        self.budget_evictions += len(evicted)
        self._m_budget_evicted.inc(len(evicted))
        self._budget_pressure = bool(evicted) or self._over_budget()
        return evicted

    @property
    def eviction_pressure(self) -> bool:
        """True while the budget is forcing evictions (health: degraded)."""
        return self._budget_pressure

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def info(self, name: str) -> dict[str, Any]:
        """One session's stats row (the list/info payload of the API)."""
        resident = name in self.sessions
        if resident:
            session = self.sessions[name]
            return {
                "name": name,
                "resident": True,
                "num_vertices": session.graph.num_vertices,
                "num_edges": session.graph.num_edges,
                "modularity": session.modularity,
                "num_communities": session.result.num_communities,
                "batches": session.batches,
                "bytes": session_nbytes(session),
                "fingerprint": session.config.fingerprint(),
            }
        if not self.snapshotted(name):
            raise KeyError(f"unknown session {name!r}")
        import json

        _, sidecar_path = snapshot_paths(self._base(name))
        sidecar = json.loads(sidecar_path.read_text())
        return {
            "name": name,
            "resident": False,
            "num_vertices": sidecar.get("num_vertices"),
            "num_edges": sidecar.get("num_edges"),
            "modularity": sidecar.get("result", {}).get("modularity"),
            "num_communities": None,
            "batches": sidecar.get("batches"),
            "bytes": 0,
            "fingerprint": sidecar.get("fingerprint"),
        }

    def list_info(self) -> list[dict[str, Any]]:
        """The stats row of every known session."""
        return [self.info(name) for name in self.names()]

    def stats(self) -> dict[str, Any]:
        """Manager-level counters (part of the /v1/stats contract)."""
        return {
            "resident": len(self.sessions),
            "known": len(self.names()),
            "resident_bytes": self.resident_bytes(),
            "created": self.created,
            "restored": self.restored,
            "evictions": self.evictions,
            "budget_evictions": self.budget_evictions,
            "snapshots": self.snapshots,
            "eviction_pressure": self.eviction_pressure,
        }
