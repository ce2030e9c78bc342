"""StreamSession: incremental Louvain over batches of edge updates.

One session owns the evolving graph and its clustering.  Each
:meth:`StreamSession.apply` call patches the CSR arrays
(:func:`~repro.graph.build.apply_edge_batch`), computes the
delta-screened frontier, and re-clusters incrementally:

* **level 0** runs
  :func:`~repro.core.mod_opt.frontier_modularity_optimization`
  warm-started from the previous membership and restricted to the
  frontier (expanding as moves ripple);
* **coarser levels** re-run the ordinary full optimizer — the contracted
  graphs are orders of magnitude smaller, and under ``screening="local"``
  contraction itself uses the dense-histogram fast path
  (:func:`~repro.core.aggregate.aggregate_bincount`).

Under ``screening="local"`` with integral weights
(:attr:`~repro.graph.csr.CSRGraph.integral_weights`) a Louvain session
also carries the level-0 contraction of (graph, membership) across
batches (:class:`~repro.core.aggregate.LabelContraction`): each batch
patches it with its changed pairs, reads level 0's starting internal
weight off it, and patches it with the level-0 movers' rows to get
level 1's graph, so no step of a batch rescans every edge.

Guard rails against silent drift: the final modularity of every batch is
exact on the full updated graph — under integral weights by
construction (every partial sum is an exact integer, so the last level's
Q is the exact value), otherwise by a recompute; a batch whose frontier
exceeds ``frontier_fraction_limit`` of the vertices falls back to a full
warm-started run; and ``full_rerun_interval=k`` additionally runs the
exact full pipeline every ``k`` batches, reports the NMI / Q gap between
the streamed and exact results, and resyncs the session to the exact
membership.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..core.aggregate import LabelContraction, aggregate_bincount, aggregate_gpu
from ..core.config import GPULouvainConfig
from ..core.engine import ALGO_NAMES, get_engine
from ..core.gpu_louvain import GPULouvainResult
from ..core.mod_opt import (
    _partition_modularity,
    frontier_modularity_optimization,
    modularity_optimization,
    singletons_can_move,
)
from ..graph.build import apply_edge_batch
from ..graph.csr import CSRGraph
from ..metrics.modularity import modularity
from ..metrics.quality import normalized_mutual_information
from ..metrics.timing import SweepStats
from ..result import StreamResult, flatten_levels
from ..trace import (
    NullTracer,
    RunReport,
    Tracer,
    as_tracer,
    current_trace_context,
    report_from_result,
)
from .frontier import delta_frontier

__all__ = ["PartitionView", "StreamConfig", "StreamSession"]

#: Movers-row cutoff for patching the carried level-0 contraction: once
#: the level-0 movers' CSR rows exceed ``1/_CARRY_EDGE_FACTOR`` of the
#: stored entries, a fresh dense-histogram contraction is cheaper than
#: the patch, whose sort grows with the rows it re-keys.  Measured on
#: the uk-2002 analog (1M stored entries): the patch cost 0.29x a fresh
#: contraction at rows = E/100, 0.79x at E/33 and 1.7x at E/17.
_CARRY_EDGE_FACTOR = 32

#: Releases the GIL and the CPU for a moment (a no-op where the OS has
#: no ``sched_yield``).  An apply runs on a worker thread while partition
#: reads run on the serving thread; a frontier-sized apply spends little
#: time in the NumPy calls that release the GIL, so without these
#: points a read that arrives mid-apply waits for the whole apply
#: (DESIGN.md §12).
_yield_gil = getattr(os, "sched_yield", lambda: None)


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of a :class:`StreamSession`.

    Attributes
    ----------
    louvain:
        The underlying engine configuration (vectorized engine with the
        per-bucket commit discipline — the streaming optimizer requires
        both).
    screening:
        ``"local"`` (default) restricts every sweep to the expanding
        frontier — fast, not guaranteed identical to a full run.
        ``"exact"`` scores every vertex once per batch and is
        bit-identical to a full warm-started :func:`gpu_louvain` run.
    frontier_scope:
        Seed rule under ``"local"`` screening.  ``"community"``
        (default) is the full delta screen — endpoints, members of their
        communities, and the endpoints' neighbours.  ``"endpoints"``
        seeds only the endpoints and relies on sweep expansion; use it
        on graphs whose communities each hold a sizeable fraction of
        the vertices, where the community rule degenerates to the whole
        vertex set.  It also switches the sweep expansion from
        community-membership to movers' neighbourhoods.
    full_rerun_interval:
        Every this-many batches, additionally run the exact full
        pipeline, report NMI / Q against it, and resync.  ``0`` = never.
    frontier_fraction_limit:
        When the seed frontier exceeds this fraction of the vertices the
        incremental path cannot win; the batch runs the full warm-started
        pipeline instead (``mode="full"``).
    algo:
        Detection algorithm (:func:`~repro.core.engine.get_engine`):
        ``"louvain"`` (default — bit-identical to the pre-engine
        sessions), ``"leiden"`` (well-connectedness refinement on every
        contraction, full and incremental), ``"lpa"`` (frontier-
        seeded weighted label propagation).
    """

    louvain: GPULouvainConfig = field(default_factory=GPULouvainConfig)
    screening: str = "local"
    frontier_scope: str = "community"
    full_rerun_interval: int = 0
    frontier_fraction_limit: float = 0.5
    algo: str = "louvain"

    def __post_init__(self) -> None:
        if self.algo not in ALGO_NAMES:
            raise ValueError(
                f"unknown algo: {self.algo!r} (expected one of {list(ALGO_NAMES)})"
            )
        if self.screening not in ("local", "exact"):
            raise ValueError(f"unknown screening mode: {self.screening!r}")
        if self.frontier_scope not in ("community", "endpoints"):
            raise ValueError(f"unknown frontier scope: {self.frontier_scope!r}")
        if self.full_rerun_interval < 0:
            raise ValueError("full_rerun_interval must be >= 0")
        if not 0.0 < self.frontier_fraction_limit <= 1.0:
            raise ValueError("frontier_fraction_limit must be in (0, 1]")
        if self.louvain.engine == "simulated":
            raise ValueError("streaming requires the vectorized engine")
        if self.louvain.relaxed_updates:
            raise ValueError(
                "streaming requires the per-bucket commit discipline "
                "(relaxed_updates=False)"
            )

    #: Engine-config fields that are structured objects (device spec, cost
    #: model) rather than result-determining tunables.  They only matter
    #: to the simulated engine's profiler — which streaming rejects — so
    #: serialisation and fingerprinting skip them and restores rebuild
    #: them from their defaults.
    _STRUCTURED_LOUVAIN_FIELDS = ("device", "cost_parameters")

    def to_meta(self) -> dict:
        """Flat JSON-safe dict of every result-determining tunable.

        This is the *full* configuration of a session — the stream-layer
        fields plus every primitive :class:`~repro.core.GPULouvainConfig`
        field — in the shape :func:`repro.obs.config_fingerprint` hashes.
        Streaming :class:`~repro.trace.RunReport` metadata embeds it (as
        ``meta["config"]``) so a restored session reproduces the exact
        trajectory fingerprint of the original.
        """
        meta: dict = {
            "screening": self.screening,
            "frontier_scope": self.frontier_scope,
            "full_rerun_interval": self.full_rerun_interval,
            "frontier_fraction_limit": self.frontier_fraction_limit,
        }
        if self.algo != "louvain":
            # The default is omitted so pre-engine fingerprints (and the
            # committed trajectory baselines keyed on them) stay stable.
            meta["algo"] = self.algo
        for spec in dataclasses.fields(GPULouvainConfig):
            if spec.name in self._STRUCTURED_LOUVAIN_FIELDS:
                continue
            value = getattr(self.louvain, spec.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            meta[spec.name] = value
        return meta

    # JSON persistence (snapshot sidecars) uses the same flat shape.
    to_dict = to_meta

    @classmethod
    def from_dict(cls, data: dict) -> "StreamConfig":
        """Rebuild a config from its :meth:`to_dict` form."""
        data = dict(data)
        # Written by every config before the field was retired; both of
        # its values ran the same sweeps, so it carries no information.
        data.pop("use_sweep_plan", None)
        # Sessions stored while the multi-process sharded engine existed.
        # Its one remaining protocol ("sync") returned results bit-identical
        # to single-process Louvain, so they continue as "louvain"; the
        # older "color" protocol found different partitions and cannot.
        shard = dict(data.pop("shard", None) or {})
        mode = shard.get("mode", "sync")
        if mode != "sync":
            raise ValueError(
                f"shard mode {mode!r} was retired; stored sharded sessions "
                "continue only from the former 'sync' protocol"
            )
        if data.get("algo") == "sharded":
            data["algo"] = "louvain"
        stream_kwargs = {
            spec.name: data.pop(spec.name)
            for spec in dataclasses.fields(cls)
            if spec.name != "louvain" and spec.name in data
        }
        for key in (
            "degree_bucket_bounds", "group_sizes", "community_bucket_bounds"
        ):
            if key in data:
                data[key] = tuple(data[key])
        if data.get("threshold_schedule") is not None:
            data["threshold_schedule"] = tuple(
                (int(limit), float(threshold))
                for limit, threshold in data["threshold_schedule"]
            )
        return cls(louvain=GPULouvainConfig(**data), **stream_kwargs)

    def fingerprint(self) -> str:
        """The :mod:`repro.obs` trajectory fingerprint of this config."""
        from ..obs.trajectory import config_fingerprint

        return config_fingerprint(self.to_meta())


@dataclass(frozen=True, eq=False)
class PartitionView:
    """One published state of a :class:`StreamSession`, for partition reads.

    The session publishes a new view at the end of every state change
    (construction, :meth:`~StreamSession.resume`, every
    :meth:`~StreamSession.apply` that returns) by one attribute
    assignment, and never changes a published one: its ``membership``
    and ``graph.weighted_degrees`` are read-only arrays.  A reader that
    took a view therefore answers from one consistent state — the
    partition after ``batch`` batches, on ``graph``, scoring
    ``modularity`` — while later batches are applied, without a lock.
    """

    batch: int
    membership: np.ndarray
    graph: CSRGraph
    modularity: float
    # Writeable aliases of ``membership`` and ``graph.weighted_degrees``,
    # for np.bincount alone: it copies any input it may not write to,
    # though it writes none, which cost every top read an O(n) copy.
    # Only top_k_communities reads them; nothing writes through them.
    _labels: np.ndarray = field(repr=False)
    _degrees: np.ndarray = field(repr=False)


def _freeze(
    array: np.ndarray, published: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(array, alias)``: ``array`` flagged read-only, and the alias a
    view counts from (see :class:`PartitionView`).

    ``published`` is the previous view's ``(array, alias)``; an array
    published before keeps its alias.  An array that does not own its
    data is copied first, since writes through its base would bypass the
    flag; one already read-only (from elsewhere) is its own alias.
    """
    if published is not None and published[0] is array:
        return published
    if array.base is not None:
        array = array.copy()
    alias = array.view() if array.flags.writeable else array
    array.flags.writeable = False
    return array, alias


def _singleton_modularity(graph: CSRGraph, resolution: float) -> float:
    """Q of the singleton partition of a *contracted* graph.

    Contraction preserves modularity, so this equals the flattened
    partition's Q on the original graph (up to float association) at
    O(coarse) cost instead of O(E) — the level-break test of the local
    screening path.
    """
    two_m = graph.total_weight
    if two_m == 0.0:
        return 0.0
    internal = float(graph.self_loop_weights().sum())
    k = graph.weighted_degrees
    return internal / two_m - resolution * float(np.square(k).sum()) / (two_m * two_m)


def _count_batch_pairs(
    side: tuple | None, n: int, width: int
) -> int:
    """Distinct undirected pairs named by one side of a batch."""
    if side is None:
        return 0
    u = np.asarray(side[0], dtype=np.int64).ravel()
    v = np.asarray(side[1], dtype=np.int64).ravel()
    if u.size == 0:
        return 0
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return int(np.unique(lo * np.int64(width) + hi).size)


class StreamSession:
    """Incremental community detection over a stream of edge batches.

    Parameters
    ----------
    graph:
        Initial graph (canonical CSR, as built by
        :func:`~repro.graph.build.from_edges`).
    config:
        A :class:`StreamConfig`; alternatively pass keyword overrides —
        :class:`StreamConfig` field names are consumed by the stream
        layer, everything else builds the inner
        :class:`~repro.core.GPULouvainConfig` (e.g.
        ``StreamSession(g, screening="exact", threshold_bin=1e-3)``).
    initial_membership:
        Warm-start the initial clustering from an existing partition.
    tracer:
        Optional :class:`~repro.trace.Tracer`.  When given, the initial
        clustering is recorded as a ``run`` span and every
        :meth:`apply` as a ``batch`` span (with nested level /
        optimization / aggregation / sweep spans), and a per-batch
        :class:`~repro.trace.RunReport` is appended to :attr:`reports`.

    Attributes
    ----------
    graph / membership / result:
        Current graph, flat clustering, and the result of the last
        (re-)clustering.  ``result`` is a :class:`StreamResult` after
        the first :meth:`apply`.
    batches:
        Number of batches applied so far.
    view:
        The :class:`PartitionView` published at the end of the last state
        change; the partition queries answer from it.  Publishing makes
        ``membership`` (the same array as the returned result's) and
        ``graph.weighted_degrees`` read-only, the input graph's included:
        copy one before writing to it.
    reports / initial_report:
        Per-batch :class:`~repro.trace.RunReport` list and the initial
        clustering's report; populated only when a tracer is attached.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: StreamConfig | None = None,
        *,
        initial_membership: np.ndarray | None = None,
        tracer: Tracer | NullTracer | None = None,
        **overrides,
    ) -> None:
        if config is None:
            stream_fields = {f.name for f in dataclasses.fields(StreamConfig)}
            stream_kwargs = {
                key: overrides.pop(key) for key in list(overrides) if key in stream_fields
            }
            if overrides:
                if "louvain" in stream_kwargs:
                    raise TypeError(
                        "pass either louvain= or engine keyword overrides, not both"
                    )
                stream_kwargs["louvain"] = GPULouvainConfig(**overrides)
            config = StreamConfig(**stream_kwargs)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.graph = graph
        self.batches = 0
        self._metrics: dict | None = None
        # (graph, labels, contraction) of the carried level-0 contraction;
        # built on the first batch that can use it.
        self._carry: tuple[CSRGraph, np.ndarray, LabelContraction] | None = None
        self.tracer = as_tracer(tracer)
        self.reports: list[RunReport] = []
        self.initial_report: RunReport | None = None
        self._engine = get_engine(config.algo)
        result = self._engine.detect(
            graph,
            config.louvain,
            initial_communities=initial_membership,
            tracer=self.tracer,
        )
        self.result: GPULouvainResult | StreamResult = result
        self.membership = result.membership
        if self.tracer.enabled and self.tracer.roots:
            self.initial_report = report_from_result(
                result,
                spans=[self.tracer.roots[-1]],
                kind="run",
                engine=config.louvain.engine,
                initial=True,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                **self._report_meta,
            )
        self._publish()

    @classmethod
    def resume(
        cls,
        graph: CSRGraph,
        config: StreamConfig,
        *,
        result: GPULouvainResult | StreamResult,
        membership: np.ndarray | None = None,
        batches: int = 0,
        tracer: Tracer | NullTracer | None = None,
        reports: list[RunReport] | None = None,
        initial_report: RunReport | None = None,
    ) -> "StreamSession":
        """Rebuild a session from persisted state without re-clustering.

        The snapshot/restore path (:mod:`repro.serve.snapshot`):
        :meth:`apply` depends only on ``graph``, ``membership`` and
        ``config``, so a session resumed from the exact persisted state
        continues **bit-identically** to the uninterrupted original
        (property-tested).  ``membership`` defaults to
        ``result.membership``; the parameter remains for snapshots
        persisted before the ``full_rerun_interval`` resync kept
        ``result`` consistent with the audited membership (the two
        could then differ).  A ``membership`` passed here is copied; the
        session publishes ``result.membership`` itself otherwise, and
        with it the graph's ``weighted_degrees``, as read-only arrays
        (see :class:`PartitionView`).
        """
        session = object.__new__(cls)
        session.config = config
        session.graph = graph
        session._metrics = None
        session._carry = None
        session._engine = get_engine(config.algo)
        session.batches = int(batches)
        session.tracer = as_tracer(tracer)
        session.reports = list(reports) if reports else []
        session.initial_report = initial_report
        session.result = result
        session.membership = (
            result.membership
            if membership is None
            else np.array(membership, dtype=np.int64)
        )
        if session.membership.shape != (graph.num_vertices,):
            raise ValueError("membership must assign one label per vertex")
        session._publish()
        return session

    @property
    def modularity(self) -> float:
        """Modularity of the current clustering."""
        return self.result.modularity

    def bind_metrics(self, registry, **labels) -> None:
        """Record per-batch runtime metrics into ``registry``.

        ``labels`` become the series labels (the serve layer passes
        ``session=<name>``); label *names* must be consistent across
        every bound session in one registry.  Recorded series:
        ``repro_stream_batch_seconds`` (apply latency histogram),
        ``repro_stream_frontier_fraction`` (gauge, last batch),
        ``repro_stream_full_reruns_total`` / ``repro_stream_resyncs_total``
        (counters) and ``repro_stream_audit_nmi`` (gauge, last audit).
        """
        names = tuple(sorted(labels))
        self._metrics = {
            "seconds": registry.histogram(
                "repro_stream_batch_seconds",
                "StreamSession.apply latency per batch.",
                labels=names,
            ).labels(**labels),
            "frontier": registry.gauge(
                "repro_stream_frontier_fraction",
                "Frontier fraction of the most recent batch.",
                labels=names,
            ).labels(**labels),
            "full_reruns": registry.counter(
                "repro_stream_full_reruns_total",
                "Batches that fell back to (or audited with) a full rerun.",
                labels=names,
            ).labels(**labels),
            "resyncs": registry.counter(
                "repro_stream_resyncs_total",
                "Audit resyncs: session state replaced by the exact rerun.",
                labels=names,
            ).labels(**labels),
            "nmi": registry.gauge(
                "repro_stream_audit_nmi",
                "NMI of streamed vs exact membership at the last audit.",
                labels=names,
            ).labels(**labels),
        }

    def _record_metrics(self, result: StreamResult, seconds: float) -> None:
        m = self._metrics
        if m is None:
            return
        m["seconds"].observe(seconds)
        m["frontier"].set(result.frontier_fraction)
        if result.full_rerun or result.mode in ("full", "stream+full"):
            m["full_reruns"].inc()
        if result.mode == "stream+full":
            m["resyncs"].inc()
        if result.nmi_vs_full is not None:
            m["nmi"].set(result.nmi_vs_full)

    def apply(
        self,
        *,
        add: tuple | None = None,
        remove: tuple | None = None,
    ) -> StreamResult:
        """Apply one batch of edge updates and re-cluster incrementally.

        ``add=(u, v, w)`` inserts undirected edges (``w=None`` for unit
        weights; adding an existing edge sums onto its weight);
        ``remove=(u, v)`` deletes edges entirely (removing a
        non-existent edge raises :class:`ValueError`).  Returns a
        :class:`StreamResult`; the session state (``graph``,
        ``membership``, ``result``) advances to the batch's outcome.

        With a session tracer the batch is recorded as a ``batch`` span
        and a per-batch :class:`~repro.trace.RunReport` is appended to
        :attr:`reports`.
        """
        tracer = self.tracer
        if not tracer.enabled:
            result = self._apply(add, remove)
            self._record_metrics(result, result.seconds)
            return result
        trace_ctx = current_trace_context()
        with tracer.span("batch") as span:
            result = self._apply(add, remove)
            span.set(batch=result.batch, mode=result.mode)
            if trace_ctx is not None:
                span.set(trace_id=trace_ctx.trace_id)
            span.count(
                edges_added=result.edges_added,
                edges_removed=result.edges_removed,
                pairs_changed=result.pairs_changed,
                frontier_size=result.frontier_size,
                frontier_fraction=result.frontier_fraction,
                modularity=result.modularity,
            )
        self._record_metrics(result, result.seconds)
        self.reports.append(
            report_from_result(
                result,
                spans=[span],
                kind="batch",
                engine=self.config.louvain.engine,
                screening=self.config.screening,
                num_vertices=self.graph.num_vertices,
                num_edges=self.graph.num_edges,
                **self._report_meta,
            )
        )
        return result

    @functools.cached_property
    def _report_meta(self) -> dict:
        """``config`` and ``fingerprint`` metadata of every report.

        The config is frozen, so both are computed once per session,
        not per traced batch.
        """
        return {
            "config": self.config.to_meta(),
            "fingerprint": self.config.fingerprint(),
        }

    # ------------------------------------------------------------------ #
    # Partition queries: answered from a published view, never from the
    # state an apply in another thread is changing.
    # ------------------------------------------------------------------ #
    def _publish(self) -> None:
        """Publish the current state as :attr:`view`: one assignment.

        ``membership`` is published as the very object ``self.membership``
        holds (the carried contraction recognises its labels by
        identity); it and the graph's ``weighted_degrees`` are made
        read-only, so a later in-place write raises instead of changing
        what a reader sees.
        """
        last = self.__dict__.get("view")
        self.membership, labels = _freeze(
            self.membership, last and (last.membership, last._labels)
        )
        graph = self.graph
        degrees = graph.weighted_degrees
        frozen, degree_alias = _freeze(
            degrees, last and (last.graph.weighted_degrees, last._degrees)
        )
        if frozen is not degrees:
            # A copy of a cached value that did not own its data.
            object.__setattr__(graph, "_weighted_degrees", frozen)
        self.view = PartitionView(
            self.batches,
            self.membership,
            graph,
            self.result.modularity,
            labels,
            degree_alias,
        )

    def community_of(self, vertex: int, *, view: PartitionView | None = None) -> int:
        """Community label of ``vertex``.

        Every query answers from ``view``, by default the latest
        published :attr:`view`; a caller that reports which batch it
        answered passes the view it took.
        """
        view = view or self.view
        v = int(vertex)
        n = view.graph.num_vertices
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range [0, {n})")
        return int(view.membership[v])

    def members(
        self, community: int, *, view: PartitionView | None = None
    ) -> np.ndarray:
        """Sorted vertex ids of community ``community`` (empty if absent)."""
        view = view or self.view
        return np.flatnonzero(view.membership == int(community))

    def top_k_communities(
        self, k: int = 10, *, by: str = "size", view: PartitionView | None = None
    ) -> list[tuple[int, float]]:
        """The ``k`` largest communities as ``(label, value)`` pairs.

        ``by="size"`` ranks by member count; ``by="volume"`` by the sum
        of members' weighted degrees (the community's ``a_c``, what the
        null model of Eq. (1) charges it).  Ties break toward the
        smaller label; ``k`` larger than the community count returns
        them all.
        """
        if by not in ("size", "volume"):
            raise ValueError(f"unknown ranking: {by!r} (size or volume)")
        if k < 0:
            raise ValueError("k must be non-negative")
        view = view or self.view
        labels = view._labels
        if labels.size == 0 or k == 0:
            return []
        counts = np.bincount(labels)
        if by == "size":
            scores = counts.astype(np.float64)
        else:
            scores = np.bincount(
                labels, weights=view._degrees, minlength=counts.size
            )
        present = np.flatnonzero(counts > 0)
        order = np.lexsort((present, -scores[present]))
        top = present[order[:k]]
        return [(int(c), float(scores[c])) for c in top]

    def _apply(self, add: tuple | None, remove: tuple | None) -> StreamResult:
        """:meth:`apply` body (tracing handled by the wrapper)."""
        start = perf_counter()
        cfg = self.config
        new_graph, du, dv, dw, count_change = apply_edge_batch(
            self.graph, add=add, remove=remove, count_change=True
        )
        self._carry_batch(new_graph, du, dv, dw, count_change)
        _yield_gil()
        self.batches += 1
        n = new_graph.num_vertices
        width = max(n, 1)
        edges_added = _count_batch_pairs(add, n, width)
        edges_removed = _count_batch_pairs(remove, n, width)
        pairs_changed = int(np.count_nonzero(dw))

        if du.size == 0:
            # Empty batch: nothing moved, keep the clustering as is.
            base = self.result
            result = StreamResult(
                levels=[level.copy() for level in base.levels],
                level_sizes=list(base.level_sizes),
                membership=self.membership,
                modularity=base.modularity,
                modularity_per_level=list(base.modularity_per_level),
                sweeps_per_level=list(base.sweeps_per_level),
                batch=self.batches,
                mode="stream",
                seconds=perf_counter() - start,
            )
            self.result = result
            self._publish()
            return result

        frontier = delta_frontier(
            new_graph, self.membership, du, dv, scope=cfg.frontier_scope
        )
        _yield_gil()
        frontier_fraction = frontier.size / width
        full_due = (
            cfg.full_rerun_interval > 0
            and self.batches % cfg.full_rerun_interval == 0
        )
        too_wide = frontier_fraction > cfg.frontier_fraction_limit

        if too_wide:
            full = self._engine.detect(
                new_graph,
                cfg.louvain,
                initial_communities=self.membership,
                tracer=self.tracer,
            )
            result = StreamResult(
                levels=full.levels,
                level_sizes=full.level_sizes,
                membership=full.membership,
                modularity=full.modularity,
                modularity_per_level=full.modularity_per_level,
                sweeps_per_level=full.sweeps_per_level,
                sweep_stats=full.sweep_stats,
                batch=self.batches,
                edges_added=edges_added,
                edges_removed=edges_removed,
                pairs_changed=pairs_changed,
                frontier_size=int(frontier.size),
                frontier_fraction=frontier_fraction,
                mode="full",
                full_rerun=True,
                q_full=full.modularity,
            )
            membership = full.membership
            store = result
        else:
            result = self._engine.stream_batch(self, new_graph, frontier)
            result.batch = self.batches
            result.edges_added = edges_added
            result.edges_removed = edges_removed
            result.pairs_changed = pairs_changed
            membership = result.membership
            store = result
            if full_due:
                full = self._engine.detect(
                    new_graph,
                    cfg.louvain,
                    initial_communities=self.membership,
                    tracer=self.tracer,
                )
                if self.tracer.enabled and self.tracer.current is not None:
                    # Label the audit run's span so reports can tell it
                    # from the batch's own incremental computation.
                    self.tracer.current.children[-1].set(audit=True)
                result.mode = "stream+full"
                result.full_rerun = True
                result.q_full = full.modularity
                result.nmi_vs_full = normalized_mutual_information(
                    result.membership, full.membership
                )
                # Resync: subsequent batches continue from the exact
                # clustering.  The *returned* result still describes the
                # incremental computation (plus the comparison fields),
                # but the session's own state must be internally
                # consistent — ``self.result`` describing the streamed
                # partition while ``self.membership`` holds the audited
                # one would make ``session.modularity`` (and any state
                # derived from the last result, e.g. the empty-batch
                # copy) describe a partition the session no longer uses.
                membership = full.membership
                store = StreamResult(
                    levels=full.levels,
                    level_sizes=full.level_sizes,
                    membership=full.membership,
                    modularity=full.modularity,
                    modularity_per_level=full.modularity_per_level,
                    sweeps_per_level=full.sweeps_per_level,
                    sweep_stats=full.sweep_stats,
                    batch=self.batches,
                    edges_added=edges_added,
                    edges_removed=edges_removed,
                    pairs_changed=pairs_changed,
                    frontier_size=result.frontier_size,
                    frontier_fraction=result.frontier_fraction,
                    mode="full",
                    full_rerun=True,
                    q_full=full.modularity,
                    nmi_vs_full=result.nmi_vs_full,
                )

        self.graph = new_graph
        self.membership = membership
        self.result = store
        self._publish()
        result.seconds = perf_counter() - start
        store.seconds = result.seconds
        return result

    def _carry_batch(
        self,
        graph: CSRGraph,
        du: np.ndarray,
        dv: np.ndarray,
        dw: np.ndarray,
        count_change: np.ndarray,
    ) -> None:
        """Patch the carried contraction with a batch's changed pairs.

        Afterwards it is the contraction of (``graph``, the pre-batch
        membership): level 0's starting point.  ``count_change`` is each
        pair's stored-entry change, as the CSR patch reports it.  A
        stale carry (its graph or labels are no longer the session's) is
        dropped instead.
        """
        carry = self._carry
        if carry is None or du.size == 0:
            return
        old, labels, contraction = carry
        stale = old is not self.graph or labels is not self.membership
        if stale or not graph.integral_weights:
            self._carry = None
            return
        contraction.add_pairs(labels, du, dv, dw, count_change)
        self._carry = (graph, labels, contraction)

    def _level0_carry(self, graph: CSRGraph) -> LabelContraction | None:
        """The contraction of (``graph``, membership) if this batch keeps one.

        Only a Louvain batch under local screening and integral weights
        keeps one: exact screening contracts with :func:`aggregate_gpu`,
        and other weights would make the patched sums differ from a
        fresh contraction's in the last bits.  Built here, on the first
        batch after a session starts or a carry was dropped.
        """
        if self.config.screening != "local" or not graph.integral_weights:
            return None
        carry = self._carry
        if carry is not None and carry[0] is graph and carry[1] is self.membership:
            return carry[2]
        return LabelContraction.of(graph, self.membership)

    def _cluster_stream(
        self, graph: CSRGraph, frontier: np.ndarray, refine=None
    ) -> StreamResult:
        """Incremental pipeline: frontier level 0, full coarser levels.

        Mirrors :func:`~repro.core.gpu_louvain.gpu_louvain`'s level loop
        (same thresholds, degenerate-level drop, and break conditions);
        under ``screening="exact"`` the per-level Q is computed exactly
        as there, so the two are bit-identical end to end.

        ``refine`` is the engine's per-contraction hook (see
        :class:`~repro.core.engine.Engine`): when given, every level
        contracts by the refined partition, so the batch's membership is
        well-connected by construction — the leiden fix for deletion
        batches stranding disconnected fragments inside stale
        communities.
        """
        cfg = self.config
        lcfg = cfg.louvain
        exact = cfg.screening == "exact"
        levels: list[np.ndarray] = []
        level_sizes: list[tuple[int, int]] = []
        sweeps_per_level: list[int] = []
        modularity_per_level: list[float] = []
        sweep_stats: list[list[SweepStats]] = []
        frontier_size = 0
        current = graph
        prev_q = -1.0
        # Leiden contracts by its refined labels (minimum member ids), a
        # relabelling of nearly every vertex, so it gains nothing from
        # the carry.
        carry = self._level0_carry(graph) if refine is None else None
        self._carry = None
        carry_labels = None  # the level-0 labels the carry is keyed by

        tracer = self.tracer
        for level in range(lcfg.max_levels):
            threshold = lcfg.threshold_for(current.num_vertices)
            with tracer.span(
                "level",
                level=level,
                num_vertices=current.num_vertices,
                num_edges=current.num_edges,
                threshold=threshold,
            ) as level_span:
                if level == 0:
                    outcome = frontier_modularity_optimization(
                        current,
                        lcfg,
                        threshold,
                        initial_communities=self.membership,
                        frontier=frontier,
                        screening=cfg.screening,
                        expansion=(
                            "neighbors"
                            if cfg.frontier_scope == "endpoints"
                            else "community"
                        ),
                        internal_weight=(
                            carry.internal_weight() if carry is not None else None
                        ),
                        tracer=tracer,
                    )
                    frontier_size = outcome.frontier_initial
                else:
                    if refine is None and not singletons_can_move(current, lcfg):
                        # Optimizing would return the identity after one
                        # sweep, and contracting by it gives a degenerate
                        # level: drop it now.
                        level_span.set(degenerate=True)
                        break
                    outcome = modularity_optimization(
                        current, lcfg, threshold, tracer=tracer
                    )
                _yield_gil()
                contract_by = outcome.communities
                if refine is not None:
                    contract_by = refine(current, outcome.communities, tracer)
                if level == 0 and carry is not None:
                    movers = np.flatnonzero(contract_by != self.membership)
                    rows = int(graph.degrees[movers].sum())
                    if _CARRY_EDGE_FACTOR * rows > graph.num_stored_edges:
                        carry = None  # cheaper to contract afresh
                    else:
                        if movers.size:
                            carry.move(graph, self.membership, contract_by, movers)
                        carry_labels = contract_by
                if level == 0 and carry_labels is not None:
                    agg = carry.contract(current, carry_labels, tracer=tracer)
                elif exact:
                    agg = aggregate_gpu(current, contract_by, lcfg, tracer=tracer)
                else:
                    agg = aggregate_bincount(
                        current, contract_by, lcfg, tracer=tracer
                    )

                no_contraction = agg.graph.num_vertices == current.num_vertices
                degenerate = (
                    no_contraction
                    and levels
                    and np.array_equal(
                        agg.dense_map, np.arange(current.num_vertices, dtype=np.int64)
                    )
                )
                if degenerate:
                    level_span.set(degenerate=True)
                    break

                levels.append(agg.dense_map)
                level_sizes.append((current.num_vertices, current.num_edges))
                sweeps_per_level.append(outcome.sweeps)
                sweep_stats.append(outcome.profile.sweeps)
                if exact:
                    q = modularity(
                        graph, flatten_levels(levels), resolution=lcfg.resolution
                    )
                else:
                    # Contraction preserves Q: the coarse singleton partition
                    # scores the flattened membership at O(coarse) cost.
                    q = _singleton_modularity(agg.graph, lcfg.resolution)
                modularity_per_level.append(q)
                level_span.count(sweeps=outcome.sweeps, modularity=q)

                current = agg.graph
                if q - prev_q < lcfg.threshold_final or no_contraction:
                    break
                prev_q = q

        membership = flatten_levels(levels)
        if carry_labels is not None:
            if not np.array_equal(membership, carry_labels):
                # Re-key to the final labels: the next batch starts from
                # them.
                final_of = np.empty(graph.num_vertices, dtype=np.int64)
                final_of[carry_labels] = membership
                carry = carry.relabel(final_of)
            self._carry = (graph, membership, carry)
        # The reported Q is always exact on the updated graph — drift in
        # the cheap per-level estimates cannot hide.
        if exact:
            # The last level's Q is metrics.modularity of this membership
            # (the same value gpu_louvain reports: bit-parity).
            q_exact = modularity_per_level[-1]
        elif graph.total_weight == 0.0:
            # All edges deleted: Q := 0 (metrics.modularity's guard).
            q_exact = modularity(graph, membership, resolution=lcfg.resolution)
        elif graph.integral_weights:
            # Every partial sum is an exact integer, so the last level's
            # contraction-based Q equals the full recompute bit for bit.
            q_exact = modularity_per_level[-1]
        else:
            q_exact = _partition_modularity(
                membership,
                (graph.vertex_of_edge, graph.indices, graph.weights),
                graph.weighted_degrees,
                graph.total_weight,
                lcfg.resolution,
            )
        return StreamResult(
            levels=levels,
            level_sizes=level_sizes,
            membership=membership,
            modularity=q_exact,
            modularity_per_level=modularity_per_level,
            sweeps_per_level=sweeps_per_level,
            sweep_stats=sweep_stats,
            frontier_size=frontier_size,
            frontier_fraction=frontier_size / max(graph.num_vertices, 1),
            mode="stream",
        )
